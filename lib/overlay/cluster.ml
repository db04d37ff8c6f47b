open Apor_util
open Apor_sim
open Apor_overlay_core

type membership = Static | Dynamic of { initial : int; rtt_ms : float }

type dgram_sink =
  now:float ->
  node:int ->
  id:int ->
  origin:int ->
  dst:int ->
  hops:int ->
  sent_at_us:int ->
  payload:int ->
  unit

type t = {
  n : int;
  initial : int; (* nodes live at start; the rest join via [join_node] *)
  engine : Message.t Engine.t;
  nodes : Node.t array;
  static_view : bool;
  mutable next_data_id : int;
  deliveries : (int, float) Hashtbl.t; (* data packet id -> delivery time *)
  dgram_sink : dgram_sink option ref;
}

let create ~config ~rtt_ms ?loss ?(membership = Static) ?trace ?scheduler ~seed () =
  let n = Array.length rtt_ms in
  if n < 2 then invalid_arg "Cluster.create: need at least two nodes";
  let initial =
    match membership with
    | Static -> n
    | Dynamic { initial; _ } ->
        if initial < 2 || initial > n then
          invalid_arg "Cluster.create: Dynamic initial outside [2, n]";
        initial
  in
  let network = Network.create ~rtt_ms ?loss ~seed () in
  let engine = Engine.create ?scheduler ~network () in
  (* Point the collector at the virtual clock and mirror every packet's
     fate into the trace before wiring anything that can send. *)
  (match trace with
  | Some tr ->
      Apor_trace.Collector.set_clock tr (fun () -> Engine.now engine);
      Engine.set_tap engine
        (Some
           {
             Engine.on_send =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Send { cls; src; dst; bytes }));
             on_deliver =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Deliver { cls; src; dst; bytes }));
             on_drop =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Drop { cls; src; dst; bytes }));
           })
  | None -> ());
  let node_trace =
    Option.map (fun tr ev -> Apor_trace.Collector.emit tr ev) trace
  in
  let root = Rng.make ~seed in
  let deliveries = Hashtbl.create 256 in
  (* Install the dispatch handler before anything can schedule or send —
     a node's very first output may be a message due at t = 0, and the
     engine raises on a delivery with no handler installed.  The tables it
     reads are populated below, before [create] returns. *)
  let runtimes : Runtime.t option array = Array.make n None in
  let dgram_sink = ref None in
  Engine.set_handler engine (fun ~dst ~src msg ->
      match (msg, !dgram_sink) with
      | Message.Dgram d, Some sink ->
          (* User datagrams short-circuit to the data-plane forwarder;
             they never enter the protocol state machines. *)
          sink ~now:(Engine.now engine) ~node:dst ~id:d.id ~origin:d.origin ~dst:d.dst
            ~hops:d.hops ~sent_at_us:d.sent_at_us ~payload:d.payload
      | _ -> (
          match runtimes.(dst) with
          | Some rt -> Runtime.dispatch rt (Node_core.Deliver { src_port = src; msg })
          | None -> ()));
  (* Decentralized dynamic membership: the first [initial] nodes are the
     genesis members, everyone else is a joiner whose contact list is the
     genesis set rotated by its own port — deterministic, and it spreads
     sponsorship across the membership instead of hammering port 0. *)
  let genesis_members = List.init initial Fun.id in
  let role_for port =
    match membership with
    | Static -> None
    | Dynamic _ ->
        let module M = Apor_membership.Membership_core in
        if port < initial then Some (M.Member (M.genesis_view ~members:genesis_members))
        else
          Some
            (M.Joiner
               { contacts = List.init initial (fun i -> (port + i) mod initial) })
  in
  let nodes =
    Array.init n (fun port ->
        let core =
          Node_core.create ~config ~port ~capacity:n ?membership:(role_for port)
            ~trace:(Option.is_some node_trace)
            ~rng:(Rng.split root (Printf.sprintf "node.%d" port))
            ()
        in
        let rt =
          Sim_runtime.create ~engine ~core
            ~deliver_data:(fun ~id ~origin:_ ->
              if not (Hashtbl.mem deliveries id) then
                Hashtbl.replace deliveries id (Engine.now engine))
            ?trace:node_trace ()
        in
        runtimes.(port) <- Some rt;
        Node.of_runtime ~now:(fun () -> Engine.now engine) rt)
  in
  {
    n;
    initial;
    engine;
    nodes;
    static_view = (membership = Static);
    next_data_id = 0;
    deliveries;
    dgram_sink;
  }

let n t = t.n
let engine t = t.engine
let engine_stats t = Engine.stats t.engine
let network t = Engine.network t.engine
let traffic t = Engine.traffic t.engine

let node t port =
  if port < 0 || port >= t.n then invalid_arg "Cluster.node: port out of range";
  t.nodes.(port)

let start t =
  for port = 0 to t.initial - 1 do
    Node.start t.nodes.(port)
  done;
  if t.static_view then begin
    (* Static membership: everyone gets the full view immediately. *)
    let members = List.init t.n Fun.id in
    let view = View.create ~version:1 ~members in
    Array.iter (fun node -> Node.install_view node view) t.nodes
  end

let join_node t port =
  if port < t.initial || port >= t.n then
    invalid_arg "Cluster.join_node: port is not a pending joiner";
  Node.start t.nodes.(port)

let run_until t horizon = Engine.run_until t.engine horizon
let now t = Engine.now t.engine

let best_hop t ~src ~dst = Node.best_hop (node t src) ~dst_port:dst
let freshness t ~src ~dst = Node.freshness (node t src) ~dst_port:dst

let node_core t port = Node.core (node t port)
let schedule_at t ~time f = Engine.schedule_at t.engine ~time f
let link_up t a b = Network.link_up (network t) a b

let accounted_bytes t port =
  let traffic = traffic t in
  let t1 = now t +. 1. in
  List.fold_left
    (fun sum cls -> sum + Traffic.bytes_in_range traffic ~cls ~node:port ~t0:0. ~t1)
    0 Traffic.all_classes

let stretch_baseline t ~origin ~dst =
  Some (Network.rtt_ms (network t) origin dst /. 2. /. 1000.)

let routing_kbps t ~node:port ~t0 ~t1 =
  Traffic.kbps (traffic t) ~classes:[ Traffic.Routing ] ~node:port ~t0 ~t1

let routing_max_window_kbps t ~node:port ~window ~t0 ~t1 =
  Traffic.max_window_kbps (traffic t) ~classes:[ Traffic.Routing ] ~node:port ~window
    ~t0 ~t1

let total_kbps t ~node:port ~t0 ~t1 =
  Traffic.kbps (traffic t) ~classes:Traffic.all_classes ~node:port ~t0 ~t1

let fresh_data_id t =
  let id = t.next_data_id in
  t.next_data_id <- id + 1;
  id

let send_data t ~src ~dst =
  let id = fresh_data_id t in
  Node.send_data (node t src) ~dst_port:dst ~id;
  id

let send_data_direct t ~src ~dst =
  if dst < 0 || dst >= t.n then invalid_arg "Cluster.send_data_direct: dst out of range";
  let id = fresh_data_id t in
  let msg = Message.Data { id; origin = src; dst; ttl = 0 } in
  Engine.send t.engine ~cls:(Message.cls msg) ~src ~dst ~bytes:(Message.size_bytes msg) msg;
  id

let data_delivered_at t id = Hashtbl.find_opt t.deliveries id

let set_dgram_sink t sink = t.dgram_sink := Some sink

let send_dgram t ~src ~next ~id ~origin ~dst ~hops ~sent_at_us ~payload =
  if src < 0 || src >= t.n || next < 0 || next >= t.n then
    invalid_arg "Cluster.send_dgram: port out of range";
  let msg = Message.Dgram { id; origin; dst; hops; sent_at_us; payload } in
  Engine.send t.engine ~cls:Msgclass.Data ~src ~dst:next
    ~bytes:(Message.size_bytes msg) msg
