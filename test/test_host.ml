(* The laws of [Apor_overlay_core.Host.S], stated once and checked against
   both implementations — the simulator's [Cluster] and loopback UDP — the
   way test_sim runs the engine suite over both schedulers:

   - timers fire in time order (FIFO at ties) and never early, and every
     timer due by [run_until]'s deadline has fired when it returns;
   - [join_node] is idempotent;
   - a datagram reaches the sink at its next hop with its fields intact,
     charged in [accounted_bytes] at both ends;
   - [link_up] is false for an isolated or killed node.

   Without loopback sockets the UDP instance reports skipped, never
   passed. *)

module Config = Apor_overlay_core.Config
module Node_core = Apor_overlay_core.Node_core
module View = Apor_overlay_core.View
module Packet = Apor_deploy.Packet

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A host plus what its construction and fault injection look like. *)
module type INSTANCE = sig
  include Apor_overlay_core.Host.S

  val scale : float
  (** Host seconds per protocol second. *)

  val with_host : n:int -> joiners:int -> (t -> unit) -> unit
  (** The last [joiners] ports are pending joiners (dynamic membership). *)

  val isolate : t -> int -> unit
end

module Sim : INSTANCE = struct
  module Cluster = Apor_overlay.Cluster
  include Cluster

  let scale = 1.

  let with_host ~n ~joiners f =
    let rtt_ms = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else 20.)) in
    let membership =
      if joiners = 0 then Cluster.Static
      else Cluster.Dynamic { initial = n - joiners; rtt_ms = 0. }
    in
    f (Cluster.create ~config:Config.quorum_default ~rtt_ms ~membership ~seed:3 ())

  let isolate t i = Apor_sim.Network.fail_node (Cluster.network t) i
end

module Udp : INSTANCE = struct
  module Udp_runtime = Apor_deploy.Udp_runtime
  include Udp_runtime

  let config = Config.deploy_local
  let scale = config.Config.routing_interval_s /. Config.quorum_default.Config.routing_interval_s

  let with_host ~n ~joiners f =
    let membership = if joiners = 0 then `Static else `Dynamic (n - joiners) in
    let trace = Apor_trace.Collector.create ~capacity:1024 () in
    match
      Udp_runtime.with_runtime ~config ~n ~membership ~base_port:9530 ~trace ~seed:3 f
    with
    | Ok () -> ()
    | Error (`Sockets_unavailable _) -> Alcotest.skip ()

  let isolate = Udp_runtime.kill_node
end

module Laws (H : INSTANCE) = struct
  let timers_in_order () =
    H.with_host ~n:3 ~joiners:0 (fun h ->
        let t0 = H.now h in
        let fired = ref [] in
        let arm label dt =
          let time = t0 +. (dt *. H.scale) in
          H.schedule_at h ~time (fun () -> fired := (label, time, H.now h) :: !fired)
        in
        arm "c" 3.;
        arm "a" 1.;
        arm "b" 2.;
        arm "a'" 1.;
        arm "past" (-1.);
        let deadline = t0 +. (3. *. H.scale) in
        H.run_until h deadline;
        let fired = List.rev !fired in
        Alcotest.(check (list string))
          "time order, FIFO at ties, the deadline's own timer included"
          [ "past"; "a"; "a'"; "b"; "c" ]
          (List.map (fun (l, _, _) -> l) fired);
        List.iter
          (fun (label, time, at) -> check_bool (label ^ " never early") true (at >= time))
          fired;
        check_bool "clock reached the deadline" true (H.now h >= deadline))

  let admitted h port =
    match Node_core.current_view (H.node_core h port) with
    | Some v -> View.contains_port v port
    | None -> false

  let join_idempotent () =
    H.with_host ~n:5 ~joiners:1 (fun h ->
        H.start h;
        H.join_node h 4;
        H.join_node h 4;
        H.run_until h (H.now h +. (90. *. H.scale));
        check_bool "admitted once" true (admitted h 4);
        let members () =
          match Node_core.current_view (H.node_core h 0) with
          | Some v -> View.size v
          | None -> 0
        in
        check_int "one new member" 5 (members ());
        H.join_node h 4;
        H.run_until h (H.now h +. (30. *. H.scale));
        check_bool "a repeated join changes nothing" true (admitted h 4);
        check_int "still one new member" 5 (members ()))

  let dgram_intact () =
    H.with_host ~n:3 ~joiners:0 (fun h ->
        let got = ref [] in
        H.set_dgram_sink h (fun ~now ~node ~id ~origin ~dst ~hops ~sent_at_us ~payload ->
            got := (now, node, (id, origin, dst, hops, sent_at_us, payload)) :: !got);
        let before = Array.init 3 (H.accounted_bytes h) in
        let sent_at = H.now h in
        H.send_dgram h ~src:0 ~next:1 ~id:77 ~origin:0 ~dst:2 ~hops:1 ~sent_at_us:123_456
          ~payload:40;
        H.run_until h (sent_at +. H.scale);
        (match !got with
        | [ (now, node, fields) ] ->
            check_int "sunk at the next hop" 1 node;
            check_bool "every field intact" true (fields = (77, 0, 2, 1, 123_456, 40));
            check_bool "not before it was sent" true (now >= sent_at)
        | l -> Alcotest.failf "expected one arrival, got %d" (List.length l));
        let charged i = H.accounted_bytes h i - before.(i) in
        let size = Packet.header_bytes + 40 in
        check_int "sender charged" size (charged 0);
        check_int "receiver charged" size (charged 1);
        check_int "bystander not charged" 0 (charged 2))

  let link_up_isolation () =
    H.with_host ~n:3 ~joiners:0 (fun h ->
        H.start h;
        for a = 0 to 2 do
          for b = 0 to 2 do
            if a <> b then check_bool "up at start" true (H.link_up h a b)
          done
        done;
        H.isolate h 2;
        check_bool "to the isolated node" false (H.link_up h 0 2);
        check_bool "from the isolated node" false (H.link_up h 2 1);
        check_bool "others unaffected" true (H.link_up h 0 1))

  let tests =
    [
      Alcotest.test_case "timers in order, never early" `Quick timers_in_order;
      Alcotest.test_case "join_node idempotent" `Quick join_idempotent;
      Alcotest.test_case "datagram intact, charged at both ends" `Quick dgram_intact;
      Alcotest.test_case "link_up false when isolated" `Quick link_up_isolation;
    ]
end

module Sim_laws = Laws (Sim)
module Udp_laws = Laws (Udp)

let () =
  Alcotest.run "apor_host" [ ("laws(sim)", Sim_laws.tests); ("laws(udp)", Udp_laws.tests) ]
