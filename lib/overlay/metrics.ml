open Apor_util
open Apor_sim

type per_pair = {
  src : int;
  dst : int;
  median : float;
  average : float;
  p97 : float;
  max : float;
}

let schedule_sampling ~cluster ~interval ~t0 ~t1 body =
  let engine = Cluster.engine cluster in
  let rec loop () =
    let now = Engine.now engine in
    if now <= t1 +. 1e-9 then begin
      if now >= t0 -. 1e-9 then body ~now;
      Engine.schedule engine ~delay:interval loop
    end
  in
  Engine.schedule_at engine ~time:t0 loop

let summary_of ~src ~dst samples =
  match Stats.summarize samples with
  | None -> None
  | Some s ->
      Some { src; dst; median = s.Stats.p50; average = s.Stats.mean; p97 = s.Stats.p97; max = s.Stats.max }

module Freshness = struct
  (* Tick-major flat storage: a 140-node deployment run accumulates ~5M
     samples, which must stay unboxed to fit comfortably in memory. *)
  type t = {
    n : int;
    max_ticks : int;
    mutable ticks : int;
    data : float array; (* data.((tick * n * n) + (src * n) + dst) *)
  }

  let install ~cluster ?(interval = 30.) ~t0 ~t1 () =
    let n = Cluster.n cluster in
    let max_ticks = int_of_float ((t1 -. t0) /. interval) + 2 in
    let t = { n; max_ticks; ticks = 0; data = Array.make (max_ticks * n * n) nan } in
    schedule_sampling ~cluster ~interval ~t0 ~t1 (fun ~now ->
        if t.ticks < t.max_ticks then begin
          let base = t.ticks * n * n in
          for src = 0 to n - 1 do
            for dst = 0 to n - 1 do
              if src <> dst then begin
                let value =
                  match Cluster.freshness cluster ~src ~dst with
                  | Some age -> age
                  | None -> now -. t0 (* nothing ever received: bound by the run *)
                in
                t.data.(base + (src * n) + dst) <- value
              end
            done
          done;
          t.ticks <- t.ticks + 1
        end);
    t

  let samples t ~src ~dst =
    if src < 0 || dst < 0 || src >= t.n || dst >= t.n then
      invalid_arg "Metrics.Freshness.samples: out of range";
    List.init t.ticks (fun tick -> t.data.((tick * t.n * t.n) + (src * t.n) + dst))

  let per_pair_summaries t =
    let acc = ref [] in
    for src = t.n - 1 downto 0 do
      for dst = t.n - 1 downto 0 do
        if src <> dst then begin
          match summary_of ~src ~dst (samples t ~src ~dst) with
          | Some s -> acc := s :: !acc
          | None -> ()
        end
      done
    done;
    !acc

  let per_destination_summaries t ~src =
    let acc = ref [] in
    for dst = t.n - 1 downto 0 do
      if src <> dst then begin
        match summary_of ~src ~dst (samples t ~src ~dst) with
        | Some s -> acc := s :: !acc
        | None -> ()
      end
    done;
    !acc
end

(* Shared shape of the two per-node samplers. *)
module Per_node = struct
  type t = { n : int; online : Stats.Online.t array }

  let install ~cluster ~interval ~t0 ~t1 sample =
    let n = Cluster.n cluster in
    let t = { n; online = Array.init n (fun _ -> Stats.Online.create ()) } in
    schedule_sampling ~cluster ~interval ~t0 ~t1 (fun ~now:_ ->
        for node = 0 to n - 1 do
          Stats.Online.add t.online.(node) (float_of_int (sample node))
        done);
    t

  let mean_per_node t =
    Array.map
      (fun o -> if Stats.Online.count o = 0 then 0. else Stats.Online.mean o)
      t.online

  let max_per_node t =
    Array.map
      (fun o -> if Stats.Online.count o = 0 then 0. else Stats.Online.max o)
      t.online
end

module Failures = struct
  type t = Per_node.t

  let install ~cluster ?(interval = 60.) ~t0 ~t1 () =
    Per_node.install ~cluster ~interval ~t0 ~t1 (fun node ->
        Apor_overlay_core.Monitor.concurrent_failures
          (Node.monitor (Cluster.node cluster node)))

  let mean_per_node = Per_node.mean_per_node
  let max_per_node = Per_node.max_per_node
end

module Double_failures = struct
  type t = Per_node.t

  let install ~cluster ?(interval = 60.) ~t0 ~t1 () =
    Per_node.install ~cluster ~interval ~t0 ~t1 (fun node ->
        Node.double_rendezvous_failure_count (Cluster.node cluster node))

  let mean_per_node = Per_node.mean_per_node
  let max_per_node = Per_node.max_per_node
end
