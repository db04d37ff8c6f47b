open Apor_util
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle
module Event = Apor_trace.Event

type outcome = {
  score : Score.t;
  violations : Oracle.violation list;
  passed : bool;
}

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
  let module M = Apor_dataplane.Metrics in
  if M.sent metrics = 0 then None
  else
    let worst = M.worst_window metrics in
    Some
      {
        Score.user_sent = M.sent metrics;
        user_delivered = M.delivered metrics;
        loss_overall = M.loss_overall metrics;
        worst_window_loss = Option.map fst worst;
        worst_window_t0 = Option.map (fun (_, w0) -> w0 /. time_scale) worst;
        (* payload per scenario second: wall goodput scaled back up *)
        goodput_kbps = M.goodput_kbps metrics ~t1 *. time_scale;
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

(* Shared score assembly once the run is over. *)
let assemble ~(scn : Scenario.t) ~runtime_name ~time_scale ~oracle ~(acc : Acc.t)
    ~avail_before ~avail_during ~avail_after ~staleness_samples ~pairs_total
    ~pairs_recovered ~joins_admitted ~user_loss ~transport =
  (* A violation is excused while a fault is active and for one grace
     window after it clears (times here are in run units — wall seconds
     on udp — like the oracle's). *)
  let run_grace = scn.grace_s *. time_scale in
  let excused =
    List.map
      (fun ev -> (ev.Scenario.at *. time_scale, (Scenario.clears_at ev *. time_scale) +. run_grace))
      scn.events
  in
  let out_of_grace = Oracle.violations_outside oracle ~windows:excused in
  let to_scn t = t /. time_scale in
  let windows =
    List.mapi
      (fun widx ev ->
        {
          Score.fault = Format.asprintf "%a" Scenario.pp_fault ev.Scenario.fault;
          t0 = ev.Scenario.at;
          t1 = Scenario.clears_at ev;
          avail_before = avail_before.(widx);
          avail_during = avail_during.(widx);
          avail_after = avail_after.(widx);
        })
      scn.events
  in
  let summarize_scaled samples = Stats.summarize (List.rev_map to_scn samples) in
  let score =
    {
      Score.scenario = scn.name;
      runtime = runtime_name;
      n = scn.n;
      seed = scn.seed;
      time_scale;
      horizon_s = scn.horizon_s;
      windows;
      failover_count = acc.failover_count;
      failover_s = summarize_scaled acc.failover_durations;
      rec_latency_s = summarize_scaled acc.rec_latencies;
      staleness_s = Stats.summarize (List.map to_scn staleness_samples);
      violations_total = Oracle.violation_count oracle;
      violations_out_of_grace = List.length out_of_grace;
      pairs_total;
      pairs_recovered;
      oracle_checks =
        Oracle.recommendations_checked oracle + Oracle.applications_checked oracle;
      joins_requested = List.length (Scenario.joins scn);
      joins_admitted;
      user_loss;
      transport;
    }
  in
  {
    score;
    violations = Oracle.violations oracle;
    passed = Score.passed score ~require_recovery:scn.require_recovery;
  }

(* --- simulator ---------------------------------------------------------- *)

let run_sim ?params ?(progress = fun _ -> ()) (scn : Scenario.t) =
  match Scenario.validate scn with
  | Error _ as e -> e
  | Ok () ->
      let module Cluster = Apor_overlay.Cluster in
      let config = Apor_overlay_core.Config.quorum_default in
      let topo = Apor_topology.Internet.generate ?params ~seed:scn.seed ~n:scn.n () in
      let trace = Collector.create ~capacity:(1 lsl 18) () in
      let staleness_s =
        float_of_int config.Apor_overlay_core.Config.staleness_windows
        *. config.Apor_overlay_core.Config.routing_interval_s
      in
      let oracle =
        Oracle.create ~raise_on_violation:false
          ~metric:config.Apor_overlay_core.Config.metric ~staleness_s ()
      in
      Oracle.attach oracle trace;
      let acc = Acc.create () in
      Acc.subscribe acc trace;
      let membership =
        if Scenario.uses_membership scn then
          Cluster.Dynamic { initial = scn.members; rtt_ms = 40. }
        else Cluster.Static
      in
      let cluster =
        Cluster.create ~config ~rtt_ms:topo.Apor_topology.Internet.rtt_ms
          ~loss:topo.Apor_topology.Internet.loss ~membership ~trace ~seed:scn.seed ()
      in
      Injector.install_sim (Cluster.engine cluster)
        ~on_join:(Cluster.join_node cluster) scn;
      Cluster.start cluster;
      let metrics =
        Apor_dataplane.Metrics.create ~window_s:user_loss_window_s ~t0:0.
      in
      let driver =
        Apor_dataplane.Sim_driver.attach ~cluster ~spec:workload_spec ~seed:scn.seed
          ~metrics ~trace ()
      in
      let availability ~time =
        (* Only members alive at this instant count: a pending joiner or
           a permanently killed node has no pairs to be unavailable. *)
        let live = Scenario.live_at scn time in
        let ok = ref 0 and total = ref 0 in
        List.iter
          (fun src ->
            List.iter
              (fun dst ->
                if src <> dst then begin
                  incr total;
                  if Cluster.route_ok cluster ~src ~dst then incr ok
                end)
              live)
          live;
        if !total = 0 then 1. else float_of_int !ok /. float_of_int !total
      in
      let nwin = List.length scn.events in
      let before = Array.make nwin 1. in
      let during = Array.make nwin 1. in
      let after = Array.make nwin 1. in
      List.iter
        (fun p ->
          if p.time > Cluster.now cluster then Cluster.run_until cluster p.time;
          let a = availability ~time:p.time in
          (match p.which with
          | `Before -> before.(p.widx) <- a
          | `During -> during.(p.widx) <- Float.min during.(p.widx) a
          | `After -> after.(p.widx) <- a);
          progress
            (Printf.sprintf "t=%8.1f avail=%.4f (window %d %s)" p.time a p.widx
               (match p.which with
               | `Before -> "before"
               | `During -> "during"
               | `After -> "after")))
        (probes_of scn);
      Cluster.run_until cluster scn.horizon_s;
      let live_h = Scenario.live_at scn scn.horizon_s in
      let staleness_samples = ref [] in
      let recovered = ref 0 in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src <> dst then
                match Cluster.freshness cluster ~src ~dst with
                | Some age ->
                    staleness_samples := age :: !staleness_samples;
                    if age <= staleness_s then incr recovered
                | None -> ())
            live_h)
        live_h;
      Oracle.check_view_agreement oracle ~now:(Cluster.now cluster) ~grace_s:scn.grace_s
        ~live:live_h;
      let joins_admitted =
        List.length
          (List.filter
             (fun (_, j) ->
               match Apor_overlay.Node.current_view (Cluster.node cluster j) with
               | Some v -> Apor_overlay_core.View.contains_port v j
               | None -> false)
             (Scenario.joins scn))
      in
      let traffic = Cluster.traffic cluster in
      Oracle.check_traffic oracle
        ~n:(Apor_sim.Traffic.n traffic)
        ~accounted:(fun node ->
          List.fold_left
            (fun sum cls ->
              sum
              + Apor_sim.Traffic.bytes_in_range traffic ~cls ~node ~t0:0.
                  ~t1:(Cluster.now cluster +. 1.))
            0 Apor_sim.Traffic.all_classes)
        ~now:(Cluster.now cluster);
      Apor_dataplane.Sim_driver.stop driver;
      Oracle.check_datagrams oracle
        ~sent:(Apor_dataplane.Sim_driver.sent driver)
        ~delivered:(Apor_dataplane.Sim_driver.delivered driver)
        ~now:(Cluster.now cluster);
      let user_loss = user_loss_of ~metrics ~time_scale:1. ~t1:scn.horizon_s in
      let m = List.length live_h in
      Ok
        (assemble ~scn ~runtime_name:"sim" ~time_scale:1. ~oracle ~acc
           ~avail_before:before ~avail_during:during ~avail_after:after
           ~staleness_samples:!staleness_samples ~pairs_total:(m * (m - 1))
           ~pairs_recovered:!recovered ~joins_admitted ~user_loss ~transport:None)

(* --- real UDP ----------------------------------------------------------- *)

let default_time_scale =
  Apor_overlay_core.Config.deploy_local.Apor_overlay_core.Config.routing_interval_s
  /. Apor_overlay_core.Config.quorum_default.Apor_overlay_core.Config.routing_interval_s

let run_udp ?(base_port = 9300) ?(time_scale = default_time_scale)
    ?(progress = fun _ -> ()) (scn : Scenario.t) =
  let module Udp = Apor_deploy.Udp_runtime in
  let module Node_core = Apor_overlay_core.Node_core in
  match Scenario.validate scn with
  | Error _ as e -> e
  | Ok () -> (
      let config = Apor_overlay_core.Config.deploy_local in
      let membership =
        if Scenario.uses_membership scn then `Dynamic scn.Scenario.members else `Static
      in
      let scaled = Scenario.scale scn time_scale in
      let trace = Collector.create ~capacity:(1 lsl 18) () in
      let staleness_wall =
        float_of_int config.Apor_overlay_core.Config.staleness_windows
        *. config.Apor_overlay_core.Config.routing_interval_s
      in
      let oracle =
        Oracle.create ~raise_on_violation:false
          ~metric:config.Apor_overlay_core.Config.metric ~staleness_s:staleness_wall ()
      in
      Oracle.attach oracle trace;
      let acc = Acc.create () in
      Acc.subscribe acc trace;
      match Udp.create ~config ~n:scn.n ~membership ~base_port ~trace ~seed:scn.seed () with
      | exception Unix.Unix_error (err, fn, _) ->
          Error (Printf.sprintf "sockets unavailable (%s in %s)" (Unix.error_message err) fn)
      | udp ->
          Fun.protect
            ~finally:(fun () -> Udp.close udp)
            (fun () ->
              let inj = Injector.Udp.create scaled in
              Injector.Udp.attach inj udp;
              Udp.start udp;
              let metrics =
                Apor_dataplane.Metrics.create
                  ~window_s:(user_loss_window_s *. time_scale)
                  ~t0:(Udp.now udp)
              in
              let driver =
                Apor_dataplane.Udp_driver.attach ~udp ~spec:workload_spec
                  ~seed:scn.seed ~metrics ~trace ()
              in
              let availability ~time =
                let now = Udp.now udp in
                let live = Scenario.live_at scn time in
                let ok = ref 0 and total = ref 0 in
                List.iter
                  (fun src ->
                    List.iter
                      (fun dst ->
                        if src <> dst then begin
                          incr total;
                          (* a crashed member stays in the denominator —
                             its pairs are unavailable, not out of scope *)
                          if Udp.node_alive udp src && Udp.node_alive udp dst then begin
                            let direct_ok =
                              not (Injector.Udp.link_blocked inj src dst)
                            in
                            match
                              Node_core.best_hop (Udp.node_core udp src) ~now
                                ~dst_port:dst
                            with
                            | None -> if direct_ok then incr ok
                            | Some hop when hop = dst || hop = src ->
                                if direct_ok then incr ok
                            | Some hop ->
                                if
                                  Udp.node_alive udp hop
                                  && (not (Injector.Udp.link_blocked inj src hop))
                                  && not (Injector.Udp.link_blocked inj hop dst)
                                then incr ok
                          end
                        end)
                      live)
                  live;
                if !total = 0 then 1. else float_of_int !ok /. float_of_int !total
              in
              let nwin = List.length scn.events in
              let before = Array.make nwin 1. in
              let during = Array.make nwin 1. in
              let after = Array.make nwin 1. in
              (* One agenda in wall seconds: injector actions and
                 availability probes, actions first on ties. *)
              let agenda =
                List.map (fun (t, a) -> (t, `Action a)) (Injector.timeline scaled)
                @ List.map (fun p -> (p.time *. time_scale, `Probe p)) (probes_of scn)
              in
              let rank = function `Action _ -> 0 | `Probe _ -> 1 in
              let agenda =
                List.stable_sort
                  (fun (ta, xa) (tb, xb) -> compare (ta, rank xa) (tb, rank xb))
                  agenda
              in
              List.iter
                (fun (time, item) ->
                  let now = Udp.now udp in
                  if time > now then Udp.run udp ~duration:(time -. now);
                  match item with
                  | `Action a ->
                      progress
                        (Format.asprintf "t=%7.2fs %a" (Udp.now udp) Injector.pp_action a);
                      Injector.Udp.apply inj udp a
                  | `Probe p ->
                      let a = availability ~time:p.time in
                      (match p.which with
                      | `Before -> before.(p.widx) <- a
                      | `During -> during.(p.widx) <- Float.min during.(p.widx) a
                      | `After -> after.(p.widx) <- a);
                      progress
                        (Printf.sprintf "t=%7.2fs avail=%.4f (window %d)" (Udp.now udp) a
                           p.widx))
                agenda;
              let remaining = scaled.Scenario.horizon_s -. Udp.now udp in
              if remaining > 0. then Udp.run udp ~duration:remaining;
              let now = Udp.now udp in
              let live_h = Scenario.live_at scn scn.horizon_s in
              let staleness_samples = ref [] in
              let recovered = ref 0 in
              List.iter
                (fun src ->
                  List.iter
                    (fun dst ->
                      if src <> dst then
                        match
                          Node_core.freshness (Udp.node_core udp src) ~now ~dst_port:dst
                        with
                        | Some age ->
                            staleness_samples := age :: !staleness_samples;
                            if age <= staleness_wall then incr recovered
                        | None -> ())
                    live_h)
                live_h;
              Oracle.check_view_agreement oracle ~now
                ~grace_s:(scn.grace_s *. time_scale) ~live:live_h;
              let joins_admitted =
                List.length
                  (List.filter
                     (fun (_, j) ->
                       match Node_core.current_view (Udp.node_core udp j) with
                       | Some v -> Apor_overlay_core.View.contains_port v j
                       | None -> false)
                     (Scenario.joins scn))
              in
              Oracle.check_traffic oracle ~n:scn.n
                ~accounted:(fun node -> Udp.accounted_bytes udp node)
                ~now;
              Apor_dataplane.Udp_driver.stop driver;
              Oracle.check_datagrams oracle
                ~sent:(Apor_dataplane.Udp_driver.sent driver)
                ~delivered:(Apor_dataplane.Udp_driver.delivered driver)
                ~now;
              let user_loss = user_loss_of ~metrics ~time_scale ~t1:now in
              let stats = Udp.stats udp in
              let overflow = ref 0 and refused = ref 0 and injected = ref 0 in
              for src = 0 to scn.n - 1 do
                for dst = 0 to scn.n - 1 do
                  if src <> dst then begin
                    let ls = Udp.link_stats udp ~src ~dst in
                    overflow := !overflow + ls.Udp.dropped_overflow;
                    refused := !refused + ls.Udp.dropped_refused;
                    injected := !injected + ls.Udp.dropped_injected
                  end
                done
              done;
              let undecodable = ref 0 in
              for i = 0 to scn.n - 1 do
                undecodable := !undecodable + Udp.undecodable udp i
              done;
              let transport =
                Some
                  {
                    Score.datagrams_sent = stats.Udp.datagrams_sent;
                    datagrams_received = stats.Udp.datagrams_received;
                    send_retries = stats.Udp.send_retries;
                    frames_dropped = stats.Udp.frames_dropped;
                    dropped_overflow = !overflow;
                    dropped_refused = !refused;
                    dropped_injected = !injected;
                    undecodable = !undecodable;
                  }
              in
              let m = List.length live_h in
              Ok
                (assemble ~scn ~runtime_name:"udp" ~time_scale ~oracle ~acc
                   ~avail_before:before ~avail_during:during ~avail_after:after
                   ~staleness_samples:!staleness_samples ~pairs_total:(m * (m - 1))
                   ~pairs_recovered:!recovered ~joins_admitted ~user_loss ~transport)))
