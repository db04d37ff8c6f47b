open Apor_util

type action =
  | Link_set of { a : int; b : int; up : bool }
  | Loss_set of { a : int; b : int; loss : float }
  | Loss_restore of { a : int; b : int }
  | Rtt_scale of { a : int; b : int; factor : float }
  | Rtt_restore of { a : int; b : int }
  | Region_set of { nodes : int list; down : bool }
  | Crash of int
  | Restart of int
  | Kill of int
  | Join of int
  | Frame_on of { node : int; kind : Scenario.frame_kind; rate : float }
  | Frame_off of { node : int; kind : Scenario.frame_kind; rate : float }

let pp_action ppf = function
  | Link_set { a; b; up } ->
      Format.fprintf ppf "link %d--%d %s" a b (if up then "up" else "down")
  | Loss_set { a; b; loss } -> Format.fprintf ppf "loss %d--%d := %g" a b loss
  | Loss_restore { a; b } -> Format.fprintf ppf "loss %d--%d restored" a b
  | Rtt_scale { a; b; factor } -> Format.fprintf ppf "rtt %d--%d x%g" a b factor
  | Rtt_restore { a; b } -> Format.fprintf ppf "rtt %d--%d restored" a b
  | Region_set { nodes; down } ->
      Format.fprintf ppf "region {%s} %s"
        (String.concat "," (List.map string_of_int nodes))
        (if down then "down" else "up")
  | Crash i -> Format.fprintf ppf "crash %d" i
  | Restart i -> Format.fprintf ppf "restart %d" i
  | Kill i -> Format.fprintf ppf "kill %d (permanent)" i
  | Join i -> Format.fprintf ppf "join %d" i
  | Frame_on { node; kind; rate } ->
      Format.fprintf ppf "frame-%s on node %d p=%g" (Scenario.kind_name kind) node rate
  | Frame_off { node; kind; _ } ->
      Format.fprintf ppf "frame-%s off node %d" (Scenario.kind_name kind) node

let actions_of (ev : Scenario.event) =
  let t0 = ev.at and t1 = Scenario.clears_at ev in
  match ev.fault with
  | Link_flap { a; b; _ } ->
      [ (t0, Link_set { a; b; up = false }); (t1, Link_set { a; b; up = true }) ]
  | Loss_burst { a; b; loss; _ } ->
      [ (t0, Loss_set { a; b; loss }); (t1, Loss_restore { a; b }) ]
  | Latency_spike { a; b; factor; _ } ->
      [ (t0, Rtt_scale { a; b; factor }); (t1, Rtt_restore { a; b }) ]
  | Region_outage { nodes; _ } ->
      [ (t0, Region_set { nodes; down = true }); (t1, Region_set { nodes; down = false }) ]
  | Node_crash { node; _ } -> [ (t0, Crash node); (t1, Restart node) ]
  | Node_kill { node } -> [ (t0, Kill node) ]
  | Node_join { node } -> [ (t0, Join node) ]
  | Frame_fault { node; kind; rate; _ } ->
      [ (t0, Frame_on { node; kind; rate }); (t1, Frame_off { node; kind; rate }) ]

let timeline (scn : Scenario.t) =
  List.concat_map actions_of scn.events
  |> List.stable_sort (fun (ta, _) (tb, _) -> compare ta tb)

let windows (scn : Scenario.t) =
  List.map (fun ev -> (ev.Scenario.at, Scenario.clears_at ev)) scn.events
  |> List.sort compare

(* Undirected link key. *)
let key a b = if a < b then (a, b) else (b, a)

(* Reference-counted link liveness, shared by both injectors: a link is
   forced down while any flap / region outage / (sim) crash holds it. *)
module Downs = struct
  type t = (int * int, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  (* Returns [Some forced_down] on a 0<->1 transition, [None] otherwise. *)
  let shift t a b ~down =
    let k = key a b in
    let c =
      match Hashtbl.find_opt t k with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.replace t k c;
          c
    in
    let before = !c in
    c := max 0 (!c + if down then 1 else -1);
    if before = 0 && !c > 0 then Some true
    else if before > 0 && !c = 0 then Some false
    else None

  let blocked t a b = match Hashtbl.find_opt t (key a b) with Some c -> !c > 0 | None -> false
end

(* Simulator: every action becomes an engine timer rewriting the
   network. *)

let install_sim (type msg) (engine : msg Apor_sim.Engine.t) ?on_join (scn : Scenario.t) =
  let open Apor_sim in
  if Scenario.joins scn <> [] && on_join = None then
    invalid_arg "Injector.install_sim: scenario has node-join events but no on_join callback";
  let net = Engine.network engine in
  let size = Network.size net in
  let downs = Downs.create () in
  (* Pre-chaos baselines, captured at first touch — all mutation goes
     through this injector, so first touch sees the pristine value. *)
  let base_loss : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let base_rtt : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let burst : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let rtt_factor : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let corrupt = Array.make size 0. in
  let baseline tbl k current =
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
        Hashtbl.replace tbl k current;
        current
  in
  let recompute_loss a b =
    let k = key a b in
    let floor_loss = baseline base_loss k (Network.loss net a b) in
    let l = match Hashtbl.find_opt burst k with Some p -> p | None -> floor_loss in
    let eff = 1. -. ((1. -. l) *. (1. -. corrupt.(a)) *. (1. -. corrupt.(b))) in
    Network.set_loss net a b (Float.min 1. (Float.max 0. eff))
  in
  let recompute_rtt a b =
    let k = key a b in
    let r0 = baseline base_rtt k (Network.rtt_ms net a b) in
    let f = match Hashtbl.find_opt rtt_factor k with Some f -> f | None -> 1. in
    Network.set_rtt_ms net a b (r0 *. f)
  in
  let link_shift a b ~down =
    match Downs.shift downs a b ~down with
    | Some forced -> Network.set_link_up net a b (not forced)
    | None -> ()
  in
  let node_shift i ~down =
    for j = 0 to size - 1 do
      if j <> i then link_shift i j ~down
    done
  in
  let apply = function
    | Link_set { a; b; up } -> link_shift a b ~down:(not up)
    | Loss_set { a; b; loss } ->
        Hashtbl.replace burst (key a b) loss;
        recompute_loss a b
    | Loss_restore { a; b } ->
        Hashtbl.remove burst (key a b);
        recompute_loss a b
    | Rtt_scale { a; b; factor } ->
        Hashtbl.replace rtt_factor (key a b) factor;
        recompute_rtt a b
    | Rtt_restore { a; b } ->
        Hashtbl.remove rtt_factor (key a b);
        recompute_rtt a b
    | Region_set { nodes; down } -> List.iter (fun i -> node_shift i ~down) nodes
    | Crash i -> node_shift i ~down:true
    | Restart i -> node_shift i ~down:false
    (* The simulator cannot unschedule a node's timers, so a permanent
       kill is permanent isolation: the corpse keeps ticking into dead
       links, which is indistinguishable from a crash to its peers. *)
    | Kill i -> node_shift i ~down:true
    | Join i -> (
        match on_join with
        | Some f -> f i
        | None -> (* unreachable: checked above *) ())
    | Frame_on { node; kind = Corrupt; rate } ->
        corrupt.(node) <- Float.min 1. (corrupt.(node) +. rate);
        for j = 0 to size - 1 do
          if j <> node then recompute_loss node j
        done
    | Frame_off { node; kind = Corrupt; rate } ->
        corrupt.(node) <- Float.max 0. (corrupt.(node) -. rate);
        for j = 0 to size - 1 do
          if j <> node then recompute_loss node j
        done
    | Frame_on { kind = Duplicate | Reorder; _ } | Frame_off { kind = Duplicate | Reorder; _ }
      ->
        (* no simulator analogue: the engine delivers each send at most
           once and in timestamp order *)
        ()
  in
  List.iter
    (fun (time, action) -> Engine.schedule_at engine ~time (fun () -> apply action))
    (timeline scn)

(* Real UDP: a stateful interpreter the runner drives between run
   segments, plus the frame-fate hook. *)

module Udp = struct
  module Runtime = Apor_deploy.Udp_runtime

  type t = {
    scn : Scenario.t;
    rng : Rng.t;
    downs : Downs.t;
    burst : (int * int, float) Hashtbl.t;
    rtt_factor : (int * int, float) Hashtbl.t;
    corrupt : float array;
    duplicate : float array;
    reorder : float array;
  }

  let create (scn : Scenario.t) =
    {
      scn;
      rng = Rng.split (Rng.make ~seed:scn.seed) "chaos.udp.injector";
      downs = Downs.create ();
      burst = Hashtbl.create 16;
      rtt_factor = Hashtbl.create 16;
      corrupt = Array.make scn.n 0.;
      duplicate = Array.make scn.n 0.;
      reorder = Array.make scn.n 0.;
    }

  let link_blocked t a b = Downs.blocked t.downs a b

  (* Loopback RTT is effectively zero, so a latency spike injects an
     absolute delay proportional to its factor; reordering holds a frame
     back long enough for the next protocol tick's frames to overtake. *)
  let spike_delay_s factor = factor *. 0.005
  let reorder_delay_s = 0.04

  let fate t ~now:_ ~src ~dst : Runtime.frame_fate =
    if Downs.blocked t.downs src dst then Drop
    else
      let lost =
        match Hashtbl.find_opt t.burst (key src dst) with
        | Some p -> Rng.bernoulli t.rng ~p
        | None -> false
      in
      if lost then Drop
      else if t.corrupt.(src) > 0. && Rng.bernoulli t.rng ~p:t.corrupt.(src) then Corrupt
      else if t.duplicate.(src) > 0. && Rng.bernoulli t.rng ~p:t.duplicate.(src) then
        Duplicate
      else if t.reorder.(src) > 0. && Rng.bernoulli t.rng ~p:t.reorder.(src) then
        Delay reorder_delay_s
      else
        match Hashtbl.find_opt t.rtt_factor (key src dst) with
        | Some f -> Delay (spike_delay_s f)
        | None -> Pass

  let attach t runtime =
    Runtime.set_fault_injector runtime
      (Some (fun ~now ~src ~dst -> fate t ~now ~src ~dst))

  let rates t = function
    | Scenario.Corrupt -> t.corrupt
    | Duplicate -> t.duplicate
    | Reorder -> t.reorder

  let apply t runtime = function
    | Link_set { a; b; up } -> ignore (Downs.shift t.downs a b ~down:(not up))
    | Loss_set { a; b; loss } -> Hashtbl.replace t.burst (key a b) loss
    | Loss_restore { a; b } -> Hashtbl.remove t.burst (key a b)
    | Rtt_scale { a; b; factor } -> Hashtbl.replace t.rtt_factor (key a b) factor
    | Rtt_restore { a; b } -> Hashtbl.remove t.rtt_factor (key a b)
    | Region_set { nodes; down } ->
        List.iter
          (fun i ->
            for j = 0 to t.scn.n - 1 do
              if j <> i then ignore (Downs.shift t.downs i j ~down)
            done)
          nodes
    | Crash i -> Runtime.kill_node runtime i
    | Restart i -> Runtime.restart_node runtime i
    | Kill i -> Runtime.kill_node runtime i
    | Join i -> Runtime.join_node runtime i
    | Frame_on { node; kind; rate } ->
        let r = rates t kind in
        r.(node) <- Float.min 1. (r.(node) +. rate)
    | Frame_off { node; kind; rate } ->
        let r = rates t kind in
        r.(node) <- Float.max 0. (r.(node) -. rate)
end
