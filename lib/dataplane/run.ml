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

let window_s = 10.

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

let make_oracle config =
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
      ~staleness_s:
        (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
      ()
  in
  oracle

let assemble ~metrics ~oracle ~runtime ~spec ~n ~t1 =
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

(* --- simulator ----------------------------------------------------------- *)

let run_sim ?(n = 144) ?(seed = 1) ?(duration_s = 300.) ?(warmup_s = 120.)
    ?(spec = Workload.default) ?(churn = false) () =
  let module Cluster = Apor_overlay.Cluster in
  let config = Config.quorum_default in
  let world = Internet.generate ~seed ~n () in
  let trace = Collector.create ~capacity:(1 lsl 18) () in
  let oracle = make_oracle config in
  Oracle.attach oracle trace;
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~trace
      ~seed ()
  in
  if churn then begin
    let (_ : Failures.t) =
      Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
    in
    ()
  end;
  Cluster.start cluster;
  let metrics = Metrics.create ~window_s ~t0:warmup_s in
  let driver =
    Sim_driver.attach ~cluster ~spec ~seed ~metrics ~trace ~start_at:warmup_s ()
  in
  let horizon = warmup_s +. duration_s in
  Cluster.run_until cluster horizon;
  Sim_driver.stop driver;
  (* drain: let in-flight datagrams land before conservation is judged *)
  Cluster.run_until cluster (horizon +. 5.);
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
  Oracle.check_datagrams oracle ~sent:(Sim_driver.sent driver)
    ~delivered:(Sim_driver.delivered driver) ~now:(Cluster.now cluster);
  assemble ~metrics ~oracle ~runtime:"sim" ~spec ~n ~t1:horizon

(* --- real UDP ------------------------------------------------------------ *)

let run_udp ?(n = 8) ?(seed = 1) ?(duration_s = 6.) ?(warmup_s = 3.) ?(base_port = 9400)
    ?(spec = Workload.default) () =
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Config.deploy_local in
  let trace = Collector.create ~capacity:(1 lsl 18) () in
  let oracle = make_oracle config in
  Oracle.attach oracle trace;
  match Udp.create ~config ~n ~base_port ~trace ~seed () with
  | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "sockets unavailable (%s in %s)" (Unix.error_message err) fn)
  | udp ->
      Udp.start udp;
      Udp.run udp ~duration:warmup_s;
      let metrics = Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
      let driver = Udp_driver.attach ~udp ~spec ~seed ~metrics ~trace () in
      Udp.run udp ~duration:duration_s;
      Udp_driver.stop driver;
      Udp.run udp ~duration:0.5;
      let t1 = Udp.now udp in
      Oracle.check_traffic oracle ~n
        ~accounted:(fun node -> Udp.accounted_bytes udp node)
        ~now:t1;
      Oracle.check_datagrams oracle ~sent:(Udp_driver.sent driver)
        ~delivered:(Udp_driver.delivered driver) ~now:t1;
      Udp.close udp;
      Ok (assemble ~metrics ~oracle ~runtime:"udp" ~spec ~n ~t1)
