(* The two simulator workloads.

   ctl-churn-join: n = 144 with the default (delta) configuration under
   the PlanetLab failure profile; 120 genesis members, and 24 joiners
   admitted one by one through the quorum membership protocol during the
   300 simulated seconds of the window.  No data plane: the work is the control plane's.

   dp-sim-flood: n = 144 with the paper's full-table baseline, no
   failures, and an open-loop flood of 64-byte datagrams at 50k/s over a
   uniform matrix for 40 simulated seconds: the engine delivers far more
   than it fires timers, and forwarding dominates.

   A run makes [reps] repetitions, each with its own inputs derived from
   the seed: set up (topology, cluster, warm-up), run the measured window
   in slices, sample recommendation ages, check the outputs. *)

module Cluster = Apor_overlay.Cluster
module Node = Apor_overlay.Node
module Config = Apor_overlay_core.Config
module Node_core = Apor_overlay_core.Node_core
module Runtime = Apor_overlay_core.Runtime
module View = Apor_overlay_core.View
module Membership_core = Apor_membership.Membership_core
module Engine = Apor_sim.Engine
module Traffic = Apor_sim.Traffic
module Internet = Apor_topology.Internet
module Failures = Apor_topology.Failures
module Collector = Apor_trace.Collector
module Event = Apor_trace.Event
module Oracle = Apor_trace.Oracle
module Workload = Apor_dataplane.Workload
module Metrics = Apor_dataplane.Metrics
module Sim_driver = Apor_dataplane.Sim_driver
module Rng = Apor_util.Rng
module Msgclass = Apor_util.Msgclass

type params = {
  n : int;
  config : Config.t;
  genesis : int;  (** [= n]: static membership; [< n]: the rest join *)
  failures : bool;
  warmup_s : float;
  window_s : float;
  rate_pps : float;  (** 0: no data plane *)
}

let ctl_churn_join ~seconds =
  {
    n = 144;
    config = Config.quorum_default;
    genesis = 120;
    failures = true;
    warmup_s = 120.;
    window_s = 15. *. seconds;
    rate_pps = 0.;
  }

let dp_sim_flood ~seconds =
  {
    n = 144;
    config = Config.full_table Config.quorum_default;
    genesis = 144;
    failures = false;
    warmup_s = 120.;
    window_s = 2. *. seconds;
    rate_pps = 50_000.;
  }

let payload_bytes = 64

let flood_spec p = { Workload.default with Workload.rate_pps = p.rate_pps; payload_bytes }
let drain_s = 5.
let join_grace_s = 45.
let join_deadline_s = 120.
let reps = 3

(* --- packet-level counters (the engine tap) ----------------------------- *)

(* Bytes per endpoint for the traffic-conservation check, plus the
   membership-class packets behind msgs/join and the data-class sends and
   drops behind datagram conservation.  When a trace collector is
   present the tap also mirrors every packet into it, exactly as
   [Cluster] does, since there is one tap slot. *)
type wire = {
  out_bytes : int array;
  in_bytes : int array;
  mutable counting_members : bool;
  mutable member_msgs : int;
  mutable member_bytes : int;
  mutable data_sends : int;
  mutable data_drops : int;
}

let install_wire cluster ?collector n =
  let w =
    {
      out_bytes = Array.make n 0;
      in_bytes = Array.make n 0;
      counting_members = false;
      member_msgs = 0;
      member_bytes = 0;
      data_sends = 0;
      data_drops = 0;
    }
  in
  let mirror =
    match collector with
    | Some tr -> fun ev -> Collector.emit tr ev
    | None -> fun _ -> ()
  in
  Engine.set_tap (Cluster.engine cluster)
    (Some
       {
         Engine.on_send =
           (fun ~cls ~src ~dst ~bytes ->
             w.out_bytes.(src) <- w.out_bytes.(src) + bytes;
             (match cls with
             | Msgclass.Membership when w.counting_members ->
                 w.member_msgs <- w.member_msgs + 1;
                 w.member_bytes <- w.member_bytes + bytes
             | Msgclass.Data -> w.data_sends <- w.data_sends + 1
             | Msgclass.Membership | Msgclass.Probe | Msgclass.Routing -> ());
             mirror (Event.Send { cls; src; dst; bytes }));
         on_deliver =
           (fun ~cls ~src ~dst ~bytes ->
             w.in_bytes.(dst) <- w.in_bytes.(dst) + bytes;
             mirror (Event.Deliver { cls; src; dst; bytes }));
         on_drop =
           (fun ~cls ~src ~dst ~bytes ->
             if cls = Msgclass.Data then w.data_drops <- w.data_drops + 1;
             mirror (Event.Drop { cls; src; dst; bytes }));
       });
  w

(* --- set-up -------------------------------------------------------------- *)

type tracing = {
  collector : Collector.t;
  oracle : Oracle.t;
  recorder : Replay.recorder;
  mutable view_changes : int;
}

type world = {
  cluster : Cluster.t;
  wire : wire;
  requested : float array;  (** per joiner port, nan until [join_node] *)
  admitted : float array;  (** nan until the joiner holds a view with itself *)
  topology_cpu : float;
  create_cpu : float;
  warmup_cpu : float;
}

let oracle_for config =
  Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
    ~staleness_s:
      (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
    ()

(* The membership role [Cluster] gives each port; the replay builds its
   fresh cores from the same roles. *)
let role p port =
  if p.genesis >= p.n then None
  else if port < p.genesis then
    Some
      (Membership_core.Member
         (Membership_core.genesis_view ~members:(List.init p.genesis Fun.id)))
  else
    Some
      (Membership_core.Joiner
         { contacts = List.init p.genesis (fun i -> (port + i) mod p.genesis) })

let set_up p ~seed ~tracing =
  let c0 = Probe.cpu_s () in
  let world = Probe.span "setup.topology" (fun () -> Internet.generate ~seed ~n:p.n ()) in
  let c1 = Probe.cpu_s () in
  let collector = Option.map (fun t -> t.collector) tracing in
  let requested = Array.make p.n Float.nan in
  let admitted = Array.make p.n Float.nan in
  let cluster, wire =
    Probe.span "setup.create" @@ fun () ->
    let membership =
      if p.genesis >= p.n then Cluster.Static
      else Cluster.Dynamic { initial = p.genesis; rtt_ms = 40. }
    in
    let cluster =
      Cluster.create ~config:p.config ~rtt_ms:world.Internet.rtt_ms
        ~loss:world.Internet.loss ~membership ?trace:collector ~seed ()
    in
    if p.failures then
      ignore
        (Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab
           ~seed ()
          : Failures.t);
    let wire = install_wire cluster ?collector p.n in
    for port = 0 to p.n - 1 do
      let rt = Node.runtime (Cluster.node cluster port) in
      let joiner = port >= p.genesis in
      let admit now =
        if Float.is_nan admitted.(port) then
          match Node_core.current_view (Runtime.core rt) with
          | Some v when View.contains_port v port -> admitted.(port) <- now
          | Some _ | None -> ()
      in
      match tracing with
      | Some t ->
          Runtime.set_tap rt
            (Some
               (fun now input outputs ->
                 Replay.record t.recorder ~port now input outputs;
                 if joiner then admit now))
      | None ->
          if joiner then
            Runtime.set_tap rt
              (Some
                 (fun now _ _ ->
                   admit now;
                   if not (Float.is_nan admitted.(port)) then Runtime.set_tap rt None))
    done;
    (cluster, wire)
  in
  let c2 = Probe.cpu_s () in
  Probe.span "setup.warmup" (fun () ->
      Cluster.start cluster;
      Cluster.run_until cluster p.warmup_s);
  let c3 = Probe.cpu_s () in
  {
    cluster;
    wire;
    requested;
    admitted;
    topology_cpu = c1 -. c0;
    create_cpu = c2 -. c1;
    warmup_cpu = c3 -. c2;
  }

(* --- the measured window ------------------------------------------------- *)

let joins (p : params) = p.n - p.genesis
let t0 (p : params) = p.warmup_s
let t1 (p : params) = p.warmup_s +. p.window_s

(* Joins spread over the first three quarters of the window, so the last
   joiner has a quarter of it to be admitted. *)
let join_time p k = t0 p +. (0.75 *. p.window_s *. float_of_int k /. float_of_int (joins p))

(* nan for a joiner never admitted *)
let join_latencies p w =
  Array.init (joins p) (fun k ->
      let port = p.genesis + k in
      w.admitted.(port) -. w.requested.(port))

(* The window runs in [slices] equal slices of simulated time, and the
   recommendation ages are sampled at the end of each.  41 keeps the
   slice length off any multiple of the routing interval, so the samples
   cover every phase of the routing cycle. *)
let slices = 41

let slice_end p i = t0 p +. (p.window_s *. float_of_int (i + 1) /. float_of_int slices)

(* Ages go into a buffer sized before the window, so sampling allocates
   nothing while the window runs. *)
type ages = { buf : float array; mutable len : int; mutable missing : int }

let sample_ages w ~n ages =
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        match Cluster.freshness w.cluster ~src ~dst with
        | Some a ->
            ages.buf.(ages.len) <- a;
            ages.len <- ages.len + 1
        | None -> ages.missing <- ages.missing + 1
    done
  done

type window = {
  meter : Probe.meter;
  events : int;
  sends : int;
  drops : int;
  max_pending : int;
  gc_minor : int;
  gc_major : int;
  major_words : float;
  ages : float array;
  ages_missing : int;
  driver : (Sim_driver.t * Metrics.t) option;
  peak_mb : float;
}

let run_window p w ~seed ~tracing =
  let cl = w.cluster in
  let meter = Probe.meter () in
  let driver =
    if p.rate_pps <= 0. then None
    else begin
      let spec = flood_spec p in
      let metrics = Metrics.create ~window_s:1. ~t0:(t0 p) in
      let trace = Option.map (fun t -> t.collector) tracing in
      Some (Sim_driver.attach ~cluster:cl ~spec ~seed ~metrics ?trace (), metrics)
    end
  in
  for k = 0 to joins p - 1 do
    let port = p.genesis + k in
    Engine.schedule_at (Cluster.engine cl) ~time:(join_time p k) (fun () ->
        w.requested.(port) <- Cluster.now cl;
        Cluster.join_node cl port)
  done;
  let s0 = Cluster.engine_stats cl in
  let g0 = Gc.quick_stat () in
  let ages = { buf = Array.make (slices * p.n * (p.n - 1)) 0.; len = 0; missing = 0 } in
  w.wire.counting_members <- joins p > 0;
  for i = 0 to slices - 1 do
    Probe.span "run_until" (fun () ->
        Probe.measure meter (fun () -> Cluster.run_until cl (slice_end p i)));
    sample_ages w ~n:p.n ages
  done;
  w.wire.counting_members <- false;
  let s1 = Cluster.engine_stats cl in
  let g1 = Gc.quick_stat () in
  let peak_mb = Probe.peak_heap_mb () in
  (* A join still pending at the window's end may finish late (under
     PlanetLab failures one took 90 s): keep the engine running, outside
     the window, until every joiner is admitted or [join_deadline_s] has
     passed since the last request. *)
  if joins p > 0 then begin
    let deadline = join_time p (joins p - 1) +. join_deadline_s in
    while Array.exists Float.is_nan (join_latencies p w) && Cluster.now cl < deadline do
      Cluster.run_until cl (Cluster.now cl +. 1.)
    done
  end;
  (* let in-flight datagrams land before conservation is judged *)
  (match driver with
  | Some (d, _) ->
      Sim_driver.stop d;
      Cluster.run_until cl (t1 p +. drain_s)
  | None -> ());
  {
    meter;
    events = s1.Engine.events - s0.Engine.events;
    sends = s1.Engine.sends - s0.Engine.sends;
    drops = s1.Engine.drops - s0.Engine.drops;
    max_pending = s1.Engine.max_pending;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    ages = Array.sub ages.buf 0 ages.len;
    ages_missing = ages.missing;
    driver;
    peak_mb;
  }

(* --- checks ---------------------------------------------------------------- *)

let check_traffic r p w =
  let traffic = Cluster.traffic w.cluster in
  let t_end = Cluster.now w.cluster +. 1. in
  let bad = ref 0 in
  for node = 0 to p.n - 1 do
    let accounted =
      List.fold_left
        (fun sum cls -> sum + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:t_end)
        0 Traffic.all_classes
    in
    if accounted <> w.wire.out_bytes.(node) + w.wire.in_bytes.(node) then incr bad
  done;
  Report.check r "traffic conservation" (!bad = 0)
    (Printf.sprintf "%d of %d nodes disagree with the wire" !bad p.n)

(* Every datagram sent is delivered once, dropped by the forwarder, or
   lost on a hop: nothing is left over or made up once the drain ends. *)
let check_datagrams r w (d, m) =
  let sent = Sim_driver.sent d and delivered = Sim_driver.delivered d in
  let accounted = delivered + Metrics.dropped m + w.wire.data_drops in
  Report.check r "datagram conservation"
    (sent = Metrics.sent m && delivered = Metrics.delivered m && sent = accounted)
    (Printf.sprintf "sent %d, delivered %d + forwarder drops %d + hop losses %d" sent
       delivered (Metrics.dropped m) w.wire.data_drops)

(* --- the workload --------------------------------------------------------- *)

let routing_bytes_per_node_s p w =
  let traffic = Cluster.traffic w.cluster in
  let total = ref 0 in
  for node = 0 to p.n - 1 do
    total :=
      !total
      + Traffic.bytes_in_range traffic ~cls:Traffic.Routing ~node ~t0:(t0 p) ~t1:(t1 p)
  done;
  float_of_int !total /. float_of_int p.n /. p.window_s


let admitted_latencies p w =
  Array.of_list (List.filter Float.is_finite (Array.to_list (join_latencies p w)))

(* Joins: the op of a run without a data plane. *)
let report_joins r p w =
  let admitted = Array.length (admitted_latencies p w) in
  Report.ops r ~attempted:(joins p) ~failed:(joins p - admitted);
  Report.check r "every join admitted" (admitted = joins p)
    (Printf.sprintf "%d of %d" admitted (joins p))

let ms s = 1000. *. s

(* The end-to-end metrics of one window, except [setup_s]. *)
let report_window r p w (win : window) =
  let cpu = win.meter.Probe.cpu in
  Report.metric r "cpu_s_per_sim_s" (cpu /. p.window_s) "s/s";
  Report.exact r "events" (float_of_int win.events) "count";
  Report.exact r "minor_words_per_event"
    (win.meter.Probe.words /. float_of_int win.events)
    "words";
  Report.exact r "peak_heap_mb" win.peak_mb "MB";
  Report.exact r "routing_bytes_per_node_s" (routing_bytes_per_node_s p w) "B/node/s";
  Report.exact r "rec_age_p50_s" (Probe.percentile win.ages 50.) "s";
  Report.exact r "rec_age_p99_s" (Probe.percentile win.ages 99.) "s";
  Report.note r
    (Printf.sprintf
       "  rec ages: %d samples over %d instants (%d pairs without a recommendation)"
       (Array.length win.ages) slices win.ages_missing);
  match win.driver with
  | None ->
      let done_ = admitted_latencies p w in
      let admitted = Array.length done_ in
      report_joins r p w;
      Report.exact r "join_s_p50" (Probe.median done_) "s";
      Report.exact r "msgs_per_join"
        (float_of_int w.wire.member_msgs /. float_of_int (max 1 admitted))
        "msgs";
      Report.metric r "cpu_us_per_op" (1e6 *. cpu /. float_of_int (max 1 admitted)) "us";
      Report.exact r "minor_words_per_op"
        (win.meter.Probe.words /. float_of_int (max 1 admitted))
        "words";
      Report.note r (Printf.sprintf "  ops are joins: %d admitted (latency samples)" admitted)
  | Some (d, m) ->
      let delivered = Sim_driver.delivered d in
      Report.ops r ~attempted:(Sim_driver.sent d) ~failed:(Sim_driver.sent d - delivered);
      let lat p = ms (Option.value ~default:Float.nan (Metrics.latency_percentile m p)) in
      Report.metric r "cpu_us_per_op" (1e6 *. cpu /. float_of_int (max 1 delivered)) "us";
      Report.exact r "minor_words_per_op"
        (win.meter.Probe.words /. float_of_int (max 1 delivered))
        "words";
      Report.exact r "dgram_lat_p50_ms" (lat 50.) "ms";
      Report.exact r "dgram_lat_p99_ms" (lat 99.) "ms";
      Report.exact r "dgram_loss" (Metrics.loss_overall m) "share";
      Report.note r
        (Printf.sprintf "  ops are datagrams: %d sent, %d delivered (latency samples)"
           (Sim_driver.sent d) delivered)

type plain = { window_cpu : float; warmup_cpu : float; delivered : int }

(* One repetition: set up, run the window, check, report. *)
let run_rep p ~seed =
  let r = Report.create "rep" in
  let c0 = Probe.cpu_s () in
  let w = set_up p ~seed ~tracing:None in
  Report.metric r "setup_s" (Probe.cpu_s () -. c0) "s";
  let win = run_window p w ~seed ~tracing:None in
  check_traffic r p w;
  Option.iter (check_datagrams r w) win.driver;
  report_window r p w win;
  let delivered = match win.driver with Some (d, _) -> Sim_driver.delivered d | None -> 0 in
  (r, { window_cpu = win.meter.Probe.cpu; warmup_cpu = w.warmup_cpu; delivered })

(* Repetition [i] of a run with seed [seed] draws its inputs from this
   seed; the first uses [seed] itself. *)
let rep_seed ~seed i = seed + (i * 100_003)

(* Untraced: the end-to-end metrics as medians over [reps] repetitions,
   each with its own inputs derived from [seed] and each after a heap
   compaction, so the world of one is gone before the next sets up. *)
let run_plain r p ~seed ~reps =
  let runs =
    List.init reps (fun i ->
        if i > 0 then Gc.compact ();
        run_rep p ~seed:(rep_seed ~seed i))
  in
  Report.combine r (List.map fst runs) ~first_only:[ "peak_heap_mb" ];
  snd (List.hd runs)

(* Traced: an untraced pass for the baseline, then the same window with
   the oracle attached and every core recorded, then the replay and the
   codec loops.  Reports the per-layer metrics. *)
let run_traced r p ~seed =
  let base =
    Probe.span "untraced-pass" (fun () ->
        run_plain (Report.create "baseline") p ~seed ~reps:1)
  in
  Gc.compact ();
  let tr =
    {
      collector = Collector.create ~capacity:4096 ();
      oracle = oracle_for p.config;
      recorder = Replay.recorder ~n:p.n;
      view_changes = 0;
    }
  in
  Oracle.attach tr.oracle tr.collector;
  Collector.subscribe tr.collector (fun tv ->
      match tv.Collector.event with
      | Event.View_adopted _ -> tr.view_changes <- tr.view_changes + 1
      | _ -> ());
  let w = Probe.span "setup" (fun () -> set_up p ~seed ~tracing:(Some tr)) in
  let win = Probe.span "window" (fun () -> run_window p w ~seed ~tracing:(Some tr)) in
  let cl = w.cluster in
  let now = Cluster.now cl in
  let traffic = Cluster.traffic cl in
  Oracle.check_traffic tr.oracle ~n:p.n
    ~accounted:(fun node ->
      List.fold_left
        (fun sum cls -> sum + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:(now +. 1.))
        0 Traffic.all_classes)
    ~now;
  (match win.driver with
  | Some (d, _) ->
      Oracle.check_datagrams tr.oracle ~sent:(Sim_driver.sent d)
        ~delivered:(Sim_driver.delivered d) ~now
  | None -> ());
  if joins p > 0 then
    Oracle.check_view_agreement tr.oracle ~now ~grace_s:join_grace_s
      ~live:(List.init p.n Fun.id);
  (* As the chaos scorer does for a node-join fault, each join excuses
     violations from its request until 45 s after its admission, while
     the grid is remapped. *)
  let excused =
    List.init (joins p) (fun k ->
        let admitted = w.admitted.(p.genesis + k) in
        (join_time p k, (if Float.is_nan admitted then now else admitted) +. join_grace_s))
  in
  let violations = Oracle.violations_outside tr.oracle ~windows:excused in
  Report.check r "oracle: no out-of-grace violations" (violations = [])
    (match violations with
    | [] ->
        Printf.sprintf "%d recommendations checked, %d violations in grace"
          (Oracle.recommendations_checked tr.oracle)
          (Oracle.violation_count tr.oracle)
    | v :: _ ->
        Format.asprintf "%d, first: %a" (List.length violations) Oracle.pp_violation v);
  check_traffic r p w;
  Option.iter (check_datagrams r w) win.driver;
  (match win.driver with
  | Some (d, _) ->
      Report.ops r ~attempted:(Sim_driver.sent d)
        ~failed:(Sim_driver.sent d - Sim_driver.delivered d)
  | None -> report_joins r p w);
  (* set-up and engine *)
  Report.metric r "setup.topology_s" w.topology_cpu "s";
  Report.metric r "setup.create_s" w.create_cpu "s";
  Report.metric r "setup.warmup_s" w.warmup_cpu "s";
  Report.metric r "engine.events_per_sim_s" (float_of_int win.events /. p.window_s) "1/s";
  Report.metric r "engine.sends_per_sim_s" (float_of_int win.sends /. p.window_s) "1/s";
  Report.metric r "engine.drops" (float_of_int win.drops) "count";
  Report.metric r "engine.max_pending" (float_of_int win.max_pending) "count";
  Report.metric r "gc.major_words_per_event"
    (win.major_words /. float_of_int win.events)
    "words";
  Report.metric r "gc.minor_collections" (float_of_int win.gc_minor) "count";
  Report.metric r "gc.major_collections" (float_of_int win.gc_major) "count";
  Report.metric r "trace.overhead_share" (win.meter.Probe.cpu /. base.window_cpu) "ratio";
  (* membership *)
  let lat = admitted_latencies p w in
  let admitted = Array.length lat in
  Report.metric r "membership.joins_admitted" (float_of_int admitted) "count";
  Report.metric r "membership.join_s_max" (Array.fold_left Float.max 0. lat) "s";
  Report.metric r "membership.bytes_per_join"
    (if admitted = 0 then 0. else float_of_int w.wire.member_bytes /. float_of_int admitted)
    "B";
  Report.metric r "membership.view_changes" (float_of_int tr.view_changes) "count";
  (* data plane *)
  (match win.driver with
  | Some (d, m) ->
      let sent = Sim_driver.sent d in
      let control_rate = base.warmup_cpu /. p.warmup_s in
      Report.metric r "dataplane.relayed_share"
        (float_of_int (w.wire.data_sends - sent) /. float_of_int (max 1 sent))
        "share";
      Report.metric r "dataplane.hop_drops" (float_of_int (Metrics.dropped m)) "count";
      Report.metric r "dataplane.data_cpu_us_per_dgram"
        (1e6
        *. (base.window_cpu -. (control_rate *. p.window_s))
        /. float_of_int (max 1 base.delivered))
        "us"
  | None ->
      Report.metric r "dataplane.relayed_share" 0. "share";
      Report.metric r "dataplane.hop_drops" 0. "count";
      Report.metric r "dataplane.data_cpu_us_per_dgram" 0. "us");
  (* the core, by replay, and the codecs over the recorded mix *)
  let msgs = ref [] in
  (* [Rng.split] advances its parent, so the streams are split off one
     root in port order, as [Cluster.create] does; the replay asks for
     the cores in that order. *)
  let root = Rng.make ~seed in
  let make_core port =
    Node_core.create ~config:p.config ~port ~capacity:p.n ?membership:(role p port)
      ~trace:false
      ~rng:(Rng.split root (Printf.sprintf "node.%d" port))
      ()
  in
  let st =
    Probe.span "replay" (fun () ->
        Replay.replay tr.recorder ~make_core ~t0:(t0 p) ~t1:(t1 p)
          ~on_window_send:(fun ~src msg -> msgs := (src, msg) :: !msgs))
  in
  Replay.report st r;
  Report.metric r "engine.self_cpu_share"
    (1. -. (float_of_int st.Replay.window_ns /. 1e9 /. base.window_cpu))
    "share";
  Codecs.messages r (Codecs.subsample (Array.of_list (List.rev !msgs)));
  (* no sockets on the simulator *)
  List.iter
    (fun (name, u) -> Report.metric r name 0. u)
    [
      ("udp.offered_share", "share"); ("udp.frames_per_batch", "count");
      ("udp.syscalls_per_dgram", "count"); ("udp.send_retries", "count");
      ("udp.frames_dropped", "count"); ("udp.busy_share", "share"); ("udp.wall_s", "s");
    ];
  Codecs.packets r
    (if p.rate_pps <= 0. then [||]
     else
       Codecs.datagram_mix ~spec:(flood_spec p) ~n:p.n ~seed ~t0:(t0 p)
         ~count:(min Codecs.max_sample (int_of_float (p.rate_pps *. p.window_s))))

(* The control messages a configuration sends on the simulator during a
   window, as [(sender, message)]: the codec mix for a runtime that keeps
   its cores' outputs private. *)
let control_mix ~n ~config ~seed ~warmup_s ~window_s =
  let world = Internet.generate ~seed ~n () in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~seed ()
  in
  let t1 = warmup_s +. window_s in
  let msgs = ref [] in
  for port = 0 to n - 1 do
    Runtime.set_tap
      (Node.runtime (Cluster.node cluster port))
      (Some
         (fun now _ outputs ->
           if now >= warmup_s && now < t1 then
             List.iter
               (function
                 | Node_core.Send { msg; _ } -> msgs := (port, msg) :: !msgs
                 | Node_core.Set_timer _ | Node_core.Deliver_data _ | Node_core.Recommend _
                 | Node_core.Trace _ ->
                     ())
               outputs))
  done;
  Cluster.start cluster;
  Cluster.run_until cluster t1;
  Codecs.subsample (Array.of_list (List.rev !msgs))
