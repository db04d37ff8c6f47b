module Config = Apor_overlay_core.Config
module Internet = Apor_topology.Internet
module Failures = Apor_topology.Failures
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle

type report = {
  json : string;
  sent : int;
  delivered : int;
  goodput_kbps : float;
  violations : int;
  conservation_violations : int;
}

let conservation_count oracle =
  List.length
    (List.filter
       (fun (v : Oracle.violation) ->
         match v.Oracle.check with
         | Oracle.Traffic_conservation | Oracle.Datagram_conservation -> true
         | Oracle.Quorum_intersection | Oracle.One_hop_optimality
         | Oracle.View_agreement ->
             false)
       (Oracle.violations oracle))

let observe config =
  let trace = Collector.create ~capacity:(1 lsl 18) () in
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
      ~staleness_s:
        (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
      ()
  in
  Oracle.attach oracle trace;
  (trace, oracle)

let report ~metrics ~oracle ~runtime ~spec ~n ~t1 =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  Buffer.add_string buf
    (Metrics.json_fields metrics ~runtime
       ~shape:(Workload.shape_to_string spec.Workload.shape)
       ~n ~t1);
  Printf.bprintf buf
    ",\"oracle\":{\"violations\":%d,\"conservation_violations\":%d,\"dgrams_sent\":%d,\"dgrams_delivered\":%d}}\n"
    (Oracle.violation_count oracle) (conservation_count oracle) (Oracle.dgrams_sent oracle)
    (Oracle.dgrams_delivered oracle);
  {
    json = Buffer.contents buf;
    sent = Metrics.sent metrics;
    delivered = Metrics.delivered metrics;
    goodput_kbps = Metrics.goodput_kbps metrics ~t1;
    violations = Oracle.violation_count oracle;
    conservation_violations = conservation_count oracle;
  }

(* The run, written once over a host; per runtime remain the construction
   and the timescales. *)
module Over (H : Apor_overlay_core.Host.S) = struct
  module D = Driver.Make (H)

  let run h ~runtime ~oracle ~trace ~spec ~seed ~warmup_s ~duration_s ~drain_s ~window_s =
    H.start h;
    let metrics = Metrics.create ~window_s ~t0:warmup_s in
    let driver = D.attach h ~spec ~seed ~metrics ~trace ~start_at:warmup_s () in
    let horizon = warmup_s +. duration_s in
    H.run_until h horizon;
    D.stop driver;
    (* drain: let in-flight datagrams land before conservation is judged *)
    H.run_until h (horizon +. drain_s);
    let now = H.now h in
    Oracle.check_traffic oracle ~n:(H.n h) ~accounted:(H.accounted_bytes h) ~now;
    Oracle.check_datagrams oracle ~sent:(D.sent driver) ~delivered:(D.delivered driver)
      ~now;
    report ~metrics ~oracle ~runtime ~spec ~n:(H.n h) ~t1:horizon
end

module Sim = Over (Apor_overlay.Cluster)
module Udp = Over (Apor_deploy.Udp_runtime)

let run_sim ?(n = 144) ?(seed = 1) ?(duration_s = 300.) ?(warmup_s = 120.)
    ?(spec = Workload.default) ?(churn = false) () =
  let module Cluster = Apor_overlay.Cluster in
  let config = Config.quorum_default in
  let world = Internet.generate ~seed ~n () in
  let trace, oracle = observe config in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~trace
      ~seed ()
  in
  if churn then
    ignore
      (Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
        : Failures.t);
  Sim.run cluster ~runtime:"sim" ~oracle ~trace ~spec ~seed ~warmup_s ~duration_s
    ~drain_s:5. ~window_s:10.

let run_udp ?(n = 8) ?(seed = 1) ?(duration_s = 6.) ?(warmup_s = 3.) ?(base_port = 9400)
    ?(spec = Workload.default) () =
  let config = Config.deploy_local in
  let trace, oracle = observe config in
  Apor_deploy.Udp_runtime.with_runtime ~config ~n ~membership:`Static ~base_port ~trace ~seed
    (fun udp ->
      Udp.run udp ~runtime:"udp" ~oracle ~trace ~spec ~seed ~warmup_s ~duration_s
        ~drain_s:0.5 ~window_s:1.)
