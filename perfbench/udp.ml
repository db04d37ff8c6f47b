(* dp-udp: the data plane over real loopback sockets.

   n = 16 nodes in this process, each on its own UDP socket, at the
   deploy timescales of [Apor_dataplane.Run.run_udp] (the paper's
   ratios, 30x faster).  After 3 s of control-plane warm-up an open-loop
   generator, in the same process, offers 20k 64-byte datagrams/s for the
   window.  This is the only workload that runs the select loop,
   [sendto]/[recvfrom], per-link flushing and the [Frame]/[Packet]
   codecs; the traffic crosses loopback, not a real link. *)

module Udp = Apor_deploy.Udp_runtime
module Config = Apor_overlay_core.Config
module Node_core = Apor_overlay_core.Node_core
module Collector = Apor_trace.Collector
module Event = Apor_trace.Event
module Oracle = Apor_trace.Oracle
module Workload = Apor_dataplane.Workload
module Metrics = Apor_dataplane.Metrics
module Udp_driver = Apor_dataplane.Udp_driver
module Msgclass = Apor_util.Msgclass

let n = 16

(* Clear of the ports ci.sh and the test suites bind (9000-9915); when a
   block is taken, the next one up is tried. *)
let base_ports = [ 9940; 10040; 10140; 10240 ]
let rate_pps = 20_000.
let payload_bytes = 64
let warmup_s = 3.
let drain_s = 0.5
let reps = 3

let config =
  {
    Config.quorum_default with
    Config.probe_interval_s = 1.0;
    probes_for_failure = 3;
    probe_timeout_s = 0.2;
    rapid_probe_interval_s = 0.25;
    routing_interval_s = 0.5;
    membership_refresh_s = 60.;
  }

let spec = { Workload.default with Workload.rate_pps; payload_bytes }

exception Sockets_unavailable of string

(* Routing-class bytes (sent + received) and the per-node byte totals of
   the traffic-conservation check, read off the runtime's packet events.
   The runtime reports message classes only through a trace collector, so
   every run attaches one; its ring is tiny and nothing is retained. *)
type wire = {
  collector : Collector.t;
  node_bytes : int array;
  mutable counting : bool;
  mutable routing_bytes : int;
}

let wire () =
  let w =
    {
      collector = Collector.create ~capacity:1 ();
      node_bytes = Array.make n 0;
      counting = false;
      routing_bytes = 0;
    }
  in
  Collector.subscribe w.collector (fun tv ->
      match tv.Collector.event with
      | Event.Send { cls; src = node; bytes; _ } | Event.Deliver { cls; dst = node; bytes; _ }
        ->
          w.node_bytes.(node) <- w.node_bytes.(node) + bytes;
          if w.counting && cls = Msgclass.Routing then
            w.routing_bytes <- w.routing_bytes + bytes
      | _ -> ());
  w

type world = { udp : Udp.t; wire : wire; create_s : float; warmup_cpu : float }

let set_up ~seed ~oracle =
  let w = wire () in
  Option.iter (fun o -> Oracle.attach o w.collector) oracle;
  let c0 = Probe.cpu_s () in
  let rec bind = function
    | [] -> assert false
    | base_port :: rest -> (
        match Udp.create ~config ~n ~base_port ~trace:w.collector ~seed () with
        | udp -> udp
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when rest <> [] -> bind rest
        | exception Unix.Unix_error (err, fn, _) ->
            raise
              (Sockets_unavailable (Printf.sprintf "%s in %s" (Unix.error_message err) fn)))
  in
  let udp = Probe.span "setup.create" (fun () -> bind base_ports) in
  let c1 = Probe.cpu_s () in
  Probe.span "setup.warmup" (fun () ->
      Udp.start udp;
      Udp.run udp ~duration:warmup_s);
  let c2 = Probe.cpu_s () in
  { udp; wire = w; create_s = c1 -. c0; warmup_cpu = c2 -. c1 }

type window = {
  meter : Probe.meter;
  driver : Udp_driver.t;
  metrics : Metrics.t;
  s0 : Udp.stats;
  s1 : Udp.stats;
  ages : float array;
  gc_minor : int;
  gc_major : int;
  peak_mb : float;
}

let copy_stats (s : Udp.stats) = { s with Udp.datagrams_sent = s.Udp.datagrams_sent }

let sample_ages udp ages =
  let now = Udp.now udp in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        match Node_core.freshness (Udp.node_core udp src) ~now ~dst_port:dst with
        | Some a -> ages := a :: !ages
        | None -> ()
    done
  done

(* Incommensurate with the 0.5 s routing interval, so the samples cover
   every phase of the routing cycle. *)
let sample_period_s = 0.137

let run_window w ~seed ~seconds =
  let udp = w.udp in
  let meter = Probe.meter () in
  let metrics = Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
  let s0 = copy_stats (Udp.stats udp) in
  let g0 = Gc.quick_stat () in
  let ages = ref [] in
  let sampling = ref true in
  let rec sample () =
    if !sampling then begin
      sample_ages udp ages;
      Udp.schedule udp ~delay:sample_period_s sample
    end
  in
  Udp.schedule udp ~delay:sample_period_s sample;
  w.wire.counting <- true;
  let driver = Udp_driver.attach ~udp ~spec ~seed ~metrics () in
  Probe.span "run" (fun () -> Probe.measure meter (fun () -> Udp.run udp ~duration:seconds));
  sampling := false;
  w.wire.counting <- false;
  let s1 = copy_stats (Udp.stats udp) in
  let g1 = Gc.quick_stat () in
  let peak_mb = Probe.peak_heap_mb () in
  Udp_driver.stop driver;
  Udp.run udp ~duration:drain_s;
  {
    meter;
    driver;
    metrics;
    s0;
    s1;
    ages = Array.of_list !ages;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    peak_mb;
  }

(* Counter-form conservation: the driver and the metrics agree, nothing
   is delivered twice or from nowhere, and every node's bytes on the wire
   match what the runtime charged it.  Loopback may still lose datagrams
   in a full socket buffer; that is loss, not a violation. *)
let check r w win =
  let d = win.driver and m = win.metrics in
  let sent = Udp_driver.sent d and delivered = Udp_driver.delivered d in
  Report.check r "datagram conservation"
    (sent = Metrics.sent m && delivered = Metrics.delivered m
    && delivered + Metrics.dropped m <= sent)
    (Printf.sprintf "sent %d, delivered %d, forwarder drops %d" sent delivered
       (Metrics.dropped m));
  let bad = ref 0 in
  for node = 0 to n - 1 do
    if Udp.accounted_bytes w.udp node <> w.wire.node_bytes.(node) then incr bad
  done;
  Report.check r "traffic conservation" (!bad = 0)
    (Printf.sprintf "%d of %d nodes disagree with the wire" !bad n);
  Report.check r "non-zero goodput" (delivered > 0)
    (Printf.sprintf "%d datagrams delivered over loopback" delivered)

let ms s = 1000. *. s

let report_window r w win ~seconds =
  let d = win.driver and m = win.metrics in
  let sent = Udp_driver.sent d and delivered = Udp_driver.delivered d in
  let lat p = ms (Option.value ~default:Float.nan (Metrics.latency_percentile m p)) in
  Report.ops r ~attempted:sent ~failed:(sent - delivered);
  let cpu = win.meter.Probe.cpu in
  Report.metric r "cpu_s_per_sim_s" (cpu /. seconds) "s/s";
  Report.metric r "cpu_us_per_op" (1e6 *. cpu /. float_of_int (max 1 delivered)) "us";
  Report.metric r "minor_words_per_op"
    (win.meter.Probe.words /. float_of_int (max 1 delivered))
    "words";
  Report.metric r "peak_heap_mb" win.peak_mb "MB";
  Report.metric r "routing_bytes_per_node_s"
    (float_of_int w.wire.routing_bytes /. float_of_int n /. win.meter.Probe.wall)
    "B/node/s";
  Report.metric r "rec_age_p50_s" (Probe.percentile win.ages 50.) "s";
  Report.metric r "rec_age_p99_s" (Probe.percentile win.ages 99.) "s";
  Report.metric r "dgram_lat_p50_ms" (lat 50.) "ms";
  Report.metric r "dgram_lat_p99_ms" (lat 99.) "ms";
  Report.metric r "dgram_loss" (Metrics.loss_overall m) "share";
  Report.note r
    (Printf.sprintf
       "  loopback UDP, not a real link: %d datagrams offered by the generator, %d \
        delivered (latency samples); %d age samples"
       sent delivered (Array.length win.ages))

type plain = { window_cpu : float; warmup_cpu : float; delivered : int }

(* One repetition: set up, run a window of [seconds], check, report. *)
let run_rep ~seed ~seconds =
  let r = Report.create "rep" in
  let c0 = Probe.cpu_s () in
  let w = set_up ~seed ~oracle:None in
  Report.metric r "setup_s" (Probe.cpu_s () -. c0) "s";
  let win = run_window w ~seed ~seconds in
  check r w win;
  report_window r w win ~seconds;
  Udp.close w.udp;
  ( r,
    {
      window_cpu = win.meter.Probe.cpu;
      warmup_cpu = w.warmup_cpu;
      delivered = Udp_driver.delivered win.driver;
    } )

(* A repetition's window: half of the run's [seconds]. *)
let rep_window seconds = seconds /. 2.

(* Untraced: medians over [reps] repetitions, each with its own inputs
   derived from [seed]. *)
let run_plain r ~seed ~seconds ~reps =
  let runs =
    List.init reps (fun i ->
        if i > 0 then Gc.compact ();
        run_rep ~seed:(Sim.rep_seed ~seed i) ~seconds:(rep_window seconds))
  in
  Report.combine r (List.map fst runs) ~first_only:[ "peak_heap_mb" ];
  snd (List.hd runs)

let delta f (win : window) = float_of_int (f win.s1 - f win.s0)

(* Traced: an untraced pass for the baseline, then the same window with
   the oracle attached.  The runtime keeps its cores' dispatch private, so
   the core.* replay metrics are absent here (zeros) and the message
   codecs are timed over the same configuration's control-message mix on
   the simulator. *)
let run_traced r ~seed ~seconds =
  let base =
    Probe.span "untraced-pass" (fun () ->
        run_plain (Report.create "baseline") ~seed ~seconds ~reps:1)
  in
  Gc.compact ();
  let seconds = rep_window seconds in
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
      ~staleness_s:
        (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
      ()
  in
  let w = Probe.span "setup" (fun () -> set_up ~seed ~oracle:(Some oracle)) in
  let win = Probe.span "window" (fun () -> run_window w ~seed ~seconds) in
  let now = Udp.now w.udp in
  Oracle.check_traffic oracle ~n ~accounted:(Udp.accounted_bytes w.udp) ~now;
  let violations = Oracle.violations oracle in
  Report.check r "oracle: no violations" (violations = [])
    (match violations with
    | [] -> Printf.sprintf "%d recommendations checked" (Oracle.recommendations_checked oracle)
    | v :: _ ->
        Format.asprintf "%d, first: %a" (List.length violations) Oracle.pp_violation v);
  check r w win;
  Udp.close w.udp;
  let sent = Udp_driver.sent win.driver and delivered = Udp_driver.delivered win.driver in
  Report.ops r ~attempted:sent ~failed:(sent - delivered);
  let wall = win.meter.Probe.wall in
  let dgram_syscalls =
    delta
      (fun s -> s.Udp.datagrams_sent + s.Udp.data_batches_sent + s.Udp.datagrams_received)
      win
  in
  Report.metric r "setup.topology_s" 0. "s";
  Report.metric r "setup.create_s" w.create_s "s";
  Report.metric r "setup.warmup_s" w.warmup_cpu "s";
  List.iter
    (fun (name, u) -> Report.metric r name 0. u)
    [
      ("engine.events_per_sim_s", "1/s"); ("engine.sends_per_sim_s", "1/s");
      ("engine.drops", "count"); ("engine.max_pending", "count");
      ("engine.self_cpu_share", "share"); ("gc.major_words_per_event", "words");
      ("membership.joins_admitted", "count"); ("membership.join_s_max", "s");
      ("membership.bytes_per_join", "B"); ("membership.view_changes", "count");
    ];
  Report.metric r "gc.minor_collections" (float_of_int win.gc_minor) "count";
  Report.metric r "gc.major_collections" (float_of_int win.gc_major) "count";
  Report.metric r "trace.overhead_share" (win.meter.Probe.cpu /. base.window_cpu) "ratio";
  Report.metric r "dataplane.relayed_share"
    (delta (fun s -> s.Udp.data_frames_sent) win -. float_of_int sent
    |> fun relays -> relays /. float_of_int (max 1 sent))
    "share";
  Report.metric r "dataplane.hop_drops" (float_of_int (Metrics.dropped win.metrics)) "count";
  Report.metric r "dataplane.data_cpu_us_per_dgram"
    (1e6
    *. (base.window_cpu -. (base.warmup_cpu /. warmup_s *. seconds))
    /. float_of_int (max 1 base.delivered))
    "us";
  Report.metric r "udp.offered_share" (float_of_int sent /. (rate_pps *. wall)) "share";
  Report.metric r "udp.frames_per_batch"
    (delta (fun s -> s.Udp.data_frames_sent) win
    /. Float.max 1. (delta (fun s -> s.Udp.data_batches_sent) win))
    "count";
  Report.metric r "udp.syscalls_per_dgram"
    (dgram_syscalls /. float_of_int (max 1 delivered))
    "count";
  Report.metric r "udp.send_retries" (delta (fun s -> s.Udp.send_retries) win) "count";
  Report.metric r "udp.frames_dropped" (delta (fun s -> s.Udp.frames_dropped) win) "count";
  Report.metric r "udp.busy_share" (win.meter.Probe.cpu /. wall) "share";
  Report.metric r "udp.wall_s" wall "s";
  Replay.report_absent r;
  Codecs.messages r (Sim.control_mix ~n ~config ~seed ~warmup_s ~window_s:seconds);
  Codecs.packets r
    (Codecs.datagram_mix ~spec ~n ~seed ~t0:warmup_s
       ~count:(min Codecs.max_sample (int_of_float (rate_pps *. seconds))))
