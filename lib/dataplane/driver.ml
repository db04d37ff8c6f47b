open Apor_util
module Node_core = Apor_overlay_core.Node_core
module Collector = Apor_trace.Collector
module Ev = Apor_trace.Event

(* A closed-loop flow's outstanding datagram is abandoned after this many
   seconds: the flow restarts, the late packet (if any) is ignored on
   arrival. *)
let flow_timeout_s = 5.

module Make (H : Apor_overlay_core.Host.S) = struct
  type pending = { sent_at : float; flow : int option (* closed-loop flow index *) }

  type t = {
    host : H.t;
    gen : Workload.t;
    spec : Workload.spec;
    metrics : Metrics.t;
    trace : Collector.t option;
    pending : (int, pending) Hashtbl.t;
    mutable next_id : int;
    mutable sent : int;
    mutable delivered : int;
    mutable stopped : bool;
  }

  let sent t = t.sent
  let delivered t = t.delivered
  let stop t = t.stopped <- true
  let after t delay f = H.schedule_at t.host ~time:(H.now t.host +. delay) f

  (* Trace events are built only when a collector listens: the untraced
     forwarding path allocates nothing for them. *)
  let originate t ~flow src dst =
    let now = H.now t.host in
    let id = t.next_id in
    t.next_id <- id + 1;
    let next =
      match Node_core.best_hop (H.node_core t.host src) ~now ~dst_port:dst with
      | Some h when h <> src && h <> dst -> h
      | Some _ | None -> dst
    in
    t.sent <- t.sent + 1;
    Metrics.record_sent t.metrics ~now;
    (match t.trace with
    | Some tr ->
        let hop = if next = dst then None else Some next in
        Collector.emit tr (Ev.Dgram_sent { id; origin = src; dst; hop })
    | None -> ());
    Hashtbl.replace t.pending id { sent_at = now; flow };
    H.send_dgram t.host ~src ~next ~id ~origin:src ~dst ~hops:0
      ~sent_at_us:(int_of_float (now *. 1e6))
      ~payload:t.spec.Workload.payload_bytes;
    id

  (* One closed-loop flow: send, await delivery or timeout, think, repeat. *)
  let rec flow_step t f =
    if not t.stopped then begin
      let src, dst = Workload.pick_pair t.gen in
      let id = originate t ~flow:(Some f) src dst in
      after t flow_timeout_s (fun () ->
          if Hashtbl.mem t.pending id then begin
            (* lost: the window credit never arrives; restart the flow *)
            Hashtbl.remove t.pending id;
            flow_step t f
          end)
    end

  let rec open_loop_tick t =
    if not t.stopped then begin
      let src, dst = Workload.pick_pair t.gen in
      ignore (originate t ~flow:None src dst);
      let now = H.now t.host in
      after t (Workload.next_delay t.gen ~now) (fun () -> open_loop_tick t)
    end

  let on_dgram t ~now ~node ~id ~origin ~dst ~hops ~sent_at_us ~payload =
    if node = dst then begin
      match Hashtbl.find_opt t.pending id with
      | None -> () (* a duplicate, or abandoned by a flow timeout: ignore *)
      | Some p -> (
          Hashtbl.remove t.pending id;
          t.delivered <- t.delivered + 1;
          Metrics.record_delivered t.metrics ~now ~sent_at:p.sent_at ~payload
            ~direct_s:(H.stretch_baseline t.host ~origin ~dst)
            ~hops;
          (match t.trace with
          | Some tr -> Collector.emit tr (Ev.Dgram_delivered { id; node; hops })
          | None -> ());
          match (p.flow, t.spec.Workload.mode) with
          | Some f, Workload.Closed_loop { think_s; _ } ->
              if not t.stopped then
                after t (Float.max 1e-9 think_s) (fun () -> flow_step t f)
          | _ -> ())
    end
    else if hops + 1 > Packet.max_hops then begin
      Metrics.record_dropped t.metrics ~now;
      match t.trace with
      | Some tr -> Collector.emit tr (Ev.Dgram_dropped { id; node; reason = "hop-budget" })
      | None -> ()
    end
    else begin
      (* the advised intermediate: relay straight to the destination *)
      (match t.trace with
      | Some tr -> Collector.emit tr (Ev.Dgram_forwarded { id; node; dst })
      | None -> ());
      H.send_dgram t.host ~src:node ~next:dst ~id ~origin ~dst ~hops:(hops + 1) ~sent_at_us
        ~payload
    end

  let attach host ~spec ~seed ~metrics ?trace ?start_at () =
    let rng = Rng.split (Rng.make ~seed) "dataplane.workload" in
    let t =
      {
        host;
        gen = Workload.create ~spec ~n:(H.n host) ~rng;
        spec;
        metrics;
        trace;
        pending = Hashtbl.create 4096;
        next_id = 0;
        sent = 0;
        delivered = 0;
        stopped = false;
      }
    in
    H.set_dgram_sink host (fun ~now ~node ~id ~origin ~dst ~hops ~sent_at_us ~payload ->
        on_dgram t ~now ~node ~id ~origin ~dst ~hops ~sent_at_us ~payload);
    let kick () =
      match spec.Workload.mode with
      | Workload.Open_loop -> open_loop_tick t
      | Workload.Closed_loop { window; _ } ->
          for f = 0 to window - 1 do
            (* stagger flow starts across one mean inter-arrival interval *)
            after t (float_of_int f /. spec.Workload.rate_pps) (fun () -> flow_step t f)
          done
    in
    (match start_at with
    | Some at when at > H.now host -> H.schedule_at host ~time:at kick
    | Some _ | None -> kick ());
    t
end
