open Apor_util
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle
module Event = Apor_trace.Event
module Config = Apor_overlay_core.Config
module Node_core = Apor_overlay_core.Node_core
module Metrics = Apor_dataplane.Metrics
module Udp_runtime = Apor_deploy.Udp_runtime

type outcome = {
  score : Score.t;
  violations : Oracle.violation list;
  passed : bool;
}

type error = [ `Invalid of string | `Sockets_unavailable of string ]

(* Metric accumulation over the live stream.  The ring wraps long before a
   scenario ends (engine events dominate), so latency and failover metrics
   are gathered by subscription — the same pairing rules as
   [Apor_trace.Query], which only sees the retained tail. *)
module Acc = struct
  type t = {
    computed : (int * int, float) Hashtbl.t;  (* (server, client) -> sent at *)
    last_sample : (int * int, float) Hashtbl.t;
    mutable rec_latencies : float list;
    open_failovers : (int * int, float) Hashtbl.t;  (* (node, dst) -> started *)
    mutable failover_durations : float list;
    mutable failover_count : int;
  }

  let create () =
    {
      computed = Hashtbl.create 256;
      last_sample = Hashtbl.create 256;
      rec_latencies = [];
      open_failovers = Hashtbl.create 32;
      failover_durations = [];
      failover_count = 0;
    }

  let observe acc (tv : Collector.timed) =
    match tv.event with
    | Event.Rec_computed { server; client; _ } ->
        Hashtbl.replace acc.computed (server, client) tv.time
    | Event.Rec_applied { node; server; local = false; _ } -> (
        match Hashtbl.find_opt acc.computed (server, node) with
        | Some tc ->
            (* entries of one round-two message apply at one instant;
               collapse them into a single latency sample *)
            if Hashtbl.find_opt acc.last_sample (server, node) <> Some tv.time then begin
              Hashtbl.replace acc.last_sample (server, node) tv.time;
              acc.rec_latencies <- (tv.time -. tc) :: acc.rec_latencies
            end
        | None -> ())
    | Event.Failover_started { node; dst; _ } ->
        acc.failover_count <- acc.failover_count + 1;
        (match Hashtbl.find_opt acc.open_failovers (node, dst) with
        | Some t0 -> acc.failover_durations <- (tv.time -. t0) :: acc.failover_durations
        | None -> ());
        Hashtbl.replace acc.open_failovers (node, dst) tv.time
    | Event.Failover_stopped { node; dst; _ } -> (
        match Hashtbl.find_opt acc.open_failovers (node, dst) with
        | Some t0 ->
            Hashtbl.remove acc.open_failovers (node, dst);
            acc.failover_durations <- (tv.time -. t0) :: acc.failover_durations
        | None -> ())
    | _ -> ()

  let subscribe acc collector = Collector.subscribe collector (fun tv -> observe acc tv)
end

(* Light background user workload every chaos run carries: its end-to-end
   loss localizes the damage the availability probes only sample. *)
let workload_spec =
  {
    Apor_dataplane.Workload.shape = Apor_dataplane.Workload.Constant;
    matrix = Apor_dataplane.Workload.Uniform;
    mode = Apor_dataplane.Workload.Open_loop;
    rate_pps = 50.;
    payload_bytes = 32;
  }

let user_loss_window_s = 10. (* scenario seconds *)

let user_loss_of ~metrics ~time_scale ~t1 =
  if Metrics.sent metrics = 0 then None
  else
    let worst = Metrics.worst_window metrics in
    Some
      {
        Score.user_sent = Metrics.sent metrics;
        user_delivered = Metrics.delivered metrics;
        loss_overall = Metrics.loss_overall metrics;
        worst_window_loss = Option.map fst worst;
        worst_window_t0 = Option.map (fun (_, w0) -> w0 /. time_scale) worst;
        (* payload per scenario second: wall goodput scaled back up *)
        goodput_kbps = Metrics.goodput_kbps metrics ~t1 *. time_scale;
      }

(* Availability sampling plan: each fault window is probed just before
   injection, twice inside (the during figure is the worst of the two),
   and once the grace period after it clears. *)
type probe = { widx : int; which : [ `Before | `During | `After ]; time : float }

let probes_of (scn : Scenario.t) =
  List.concat
    (List.mapi
       (fun widx ev ->
         let t0 = ev.Scenario.at and t1 = Scenario.clears_at ev in
         let dur = t1 -. t0 in
         [
           { widx; which = `Before; time = Float.max 0. (t0 -. 1.0) };
           { widx; which = `During; time = t0 +. (0.5 *. dur) };
           { widx; which = `During; time = t0 +. (0.9 *. dur) };
           { widx; which = `After; time = Float.min scn.horizon_s (t1 +. scn.grace_s) };
         ])
       scn.events)
  |> List.stable_sort (fun a b -> compare a.time b.time)

(* The run, written once over a host.  What differs per runtime arrives
   as arguments: the host itself (construction), [apply] (how an action
   changes the world) and [transport] (the UDP socket counters). *)
module Over (H : Apor_overlay_core.Host.S) = struct
  module Driver = Apor_dataplane.Driver.Make (H)

  (* RON-style instantaneous availability over the ordered pairs of
     [live]: a pair is up when its current route is — the direct link when
     no detour is recommended, otherwise both legs of the detour.  A
     crashed member stays in the denominator: its pairs are unavailable,
     not out of scope. *)
  let availability h ~live =
    let now = H.now h in
    let route_up src dst =
      match Node_core.best_hop (H.node_core h src) ~now ~dst_port:dst with
      | Some hop when hop <> src && hop <> dst -> H.link_up h src hop && H.link_up h hop dst
      | Some _ | None -> H.link_up h src dst
    in
    let ok = ref 0 and total = ref 0 in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if src <> dst then begin
              incr total;
              if route_up src dst then incr ok
            end)
          live)
      live;
    if !total = 0 then 1. else float_of_int !ok /. float_of_int !total

  let run h ~(scn : Scenario.t) ~runtime_name ~time_scale ~config ~trace ~oracle ~acc
      ~apply ~transport ~progress =
    let at t = t *. time_scale in
    List.iter
      (fun (time, action) ->
        H.schedule_at h ~time (fun () ->
            progress (Format.asprintf "t=%8.2f %a" (H.now h) Injector.pp_action action);
            match action with Injector.Join i -> H.join_node h i | a -> apply a))
      (Injector.timeline (Scenario.scale scn time_scale));
    H.start h;
    let metrics = Metrics.create ~window_s:(at user_loss_window_s) ~t0:(H.now h) in
    let driver = Driver.attach h ~spec:workload_spec ~seed:scn.seed ~metrics ~trace () in
    let nwin = List.length scn.events in
    let before = Array.make nwin 1. in
    let during = Array.make nwin 1. in
    let after = Array.make nwin 1. in
    List.iter
      (fun p ->
        if at p.time > H.now h then H.run_until h (at p.time);
        let a = availability h ~live:(Scenario.live_at scn p.time) in
        (match p.which with
        | `Before -> before.(p.widx) <- a
        | `During -> during.(p.widx) <- Float.min during.(p.widx) a
        | `After -> after.(p.widx) <- a);
        progress (Printf.sprintf "t=%8.2f avail=%.4f (window %d)" (H.now h) a p.widx))
      (probes_of scn);
    H.run_until h (at scn.horizon_s);
    let now = H.now h in
    let staleness_s =
      float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s
    in
    let live_h = Scenario.live_at scn scn.horizon_s in
    let staleness_samples = ref [] in
    let recovered = ref 0 in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if src <> dst then
              match Node_core.freshness (H.node_core h src) ~now ~dst_port:dst with
              | Some age ->
                  staleness_samples := age :: !staleness_samples;
                  if age <= staleness_s then incr recovered
              | None -> ())
          live_h)
      live_h;
    Oracle.check_view_agreement oracle ~now ~grace_s:(at scn.grace_s) ~live:live_h;
    let joins_admitted =
      List.length
        (List.filter
           (fun (_, j) ->
             match Node_core.current_view (H.node_core h j) with
             | Some v -> Apor_overlay_core.View.contains_port v j
             | None -> false)
           (Scenario.joins scn))
    in
    Oracle.check_traffic oracle ~n:(H.n h) ~accounted:(H.accounted_bytes h) ~now;
    Driver.stop driver;
    Oracle.check_datagrams oracle ~sent:(Driver.sent driver)
      ~delivered:(Driver.delivered driver) ~now;
    (* A violation is excused while a fault is active and for one grace
       window after it clears (in host seconds, like the oracle's). *)
    let excused =
      List.map
        (fun ev -> (at ev.Scenario.at, at (Scenario.clears_at ev) +. at scn.grace_s))
        scn.events
    in
    let to_scn t = t /. time_scale in
    let summarize_scaled samples = Stats.summarize (List.rev_map to_scn samples) in
    let m = List.length live_h in
    let score =
      {
        Score.scenario = scn.name;
        runtime = runtime_name;
        n = scn.n;
        seed = scn.seed;
        time_scale;
        horizon_s = scn.horizon_s;
        windows =
          List.mapi
            (fun widx ev ->
              {
                Score.fault = Format.asprintf "%a" Scenario.pp_fault ev.Scenario.fault;
                t0 = ev.Scenario.at;
                t1 = Scenario.clears_at ev;
                avail_before = before.(widx);
                avail_during = during.(widx);
                avail_after = after.(widx);
              })
            scn.events;
        failover_count = acc.Acc.failover_count;
        failover_s = summarize_scaled acc.Acc.failover_durations;
        rec_latency_s = summarize_scaled acc.Acc.rec_latencies;
        staleness_s = Stats.summarize (List.map to_scn !staleness_samples);
        violations_total = Oracle.violation_count oracle;
        violations_out_of_grace =
          List.length (Oracle.violations_outside oracle ~windows:excused);
        pairs_total = m * (m - 1);
        pairs_recovered = !recovered;
        oracle_checks =
          Oracle.recommendations_checked oracle + Oracle.applications_checked oracle;
        joins_requested = List.length (Scenario.joins scn);
        joins_admitted;
        user_loss = user_loss_of ~metrics ~time_scale ~t1:now;
        transport = transport ();
      }
    in
    {
      score;
      violations = Oracle.violations oracle;
      passed = Score.passed score ~require_recovery:scn.require_recovery;
    }
end

module Sim = Over (Apor_overlay.Cluster)
module Udp = Over (Udp_runtime)

(* The invariant oracle (recording, not raising) and the metric
   subscribers, attached to a fresh collector. *)
let observe config =
  let trace = Collector.create ~capacity:(1 lsl 18) () in
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
      ~staleness_s:
        (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
      ()
  in
  Oracle.attach oracle trace;
  let acc = Acc.create () in
  Acc.subscribe acc trace;
  (trace, oracle, acc)

let run_sim ?params ?(progress = fun _ -> ()) (scn : Scenario.t) =
  match Scenario.validate scn with
  | Error e -> Error (`Invalid e)
  | Ok () ->
      let module Cluster = Apor_overlay.Cluster in
      let config = Config.quorum_default in
      let topo = Apor_topology.Internet.generate ?params ~seed:scn.seed ~n:scn.n () in
      let trace, oracle, acc = observe config in
      let membership =
        if Scenario.uses_membership scn then
          Cluster.Dynamic { initial = scn.members; rtt_ms = 40. }
        else Cluster.Static
      in
      let cluster =
        Cluster.create ~config ~rtt_ms:topo.Apor_topology.Internet.rtt_ms
          ~loss:topo.Apor_topology.Internet.loss ~membership ~trace ~seed:scn.seed ()
      in
      Ok
        (Sim.run cluster ~scn ~runtime_name:"sim" ~time_scale:1. ~config ~trace ~oracle
           ~acc
           ~apply:(Injector.sim (Cluster.network cluster))
           ~transport:(fun () -> None)
           ~progress)

let default_time_scale =
  Config.deploy_local.Config.routing_interval_s
  /. Config.quorum_default.Config.routing_interval_s

(* The socket-level loss accounting only a real transport has. *)
let transport_of udp ~n =
  let stats = Udp_runtime.stats udp in
  let overflow = ref 0 and refused = ref 0 and injected = ref 0 and undecodable = ref 0 in
  for src = 0 to n - 1 do
    undecodable := !undecodable + Udp_runtime.undecodable udp src;
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let ls = Udp_runtime.link_stats udp ~src ~dst in
        overflow := !overflow + ls.Udp_runtime.dropped_overflow;
        refused := !refused + ls.Udp_runtime.dropped_refused;
        injected := !injected + ls.Udp_runtime.dropped_injected
      end
    done
  done;
  {
    Score.datagrams_sent = stats.Udp_runtime.datagrams_sent;
    datagrams_received = stats.Udp_runtime.datagrams_received;
    send_retries = stats.Udp_runtime.send_retries;
    frames_dropped = stats.Udp_runtime.frames_dropped;
    dropped_overflow = !overflow;
    dropped_refused = !refused;
    dropped_injected = !injected;
    undecodable = !undecodable;
  }

let run_udp ?(base_port = 9300) ?(time_scale = default_time_scale)
    ?(progress = fun _ -> ()) (scn : Scenario.t) =
  match Scenario.validate scn with
  | Error e -> Error (`Invalid e)
  | Ok () ->
      let config = Config.deploy_local in
      let trace, oracle, acc = observe config in
      let membership =
        if Scenario.uses_membership scn then `Dynamic scn.Scenario.members else `Static
      in
      Udp_runtime.with_runtime ~config ~n:scn.n ~membership ~base_port ~trace
        ~seed:scn.seed (fun udp ->
          Udp.run udp ~scn ~runtime_name:"udp" ~time_scale ~config ~trace ~oracle ~acc
            ~apply:(Injector.udp scn udp)
            ~transport:(fun () -> Some (transport_of udp ~n:scn.n))
            ~progress)
