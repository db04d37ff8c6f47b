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

(* Reference-counted forced link-down state, shared by both worlds: a link
   is down while any flap, region outage or (simulator) crash holds it, so
   [set a b up] hears only the 0 <-> 1 transitions. *)
let link_downs ~size ~set =
  let counts = Hashtbl.create 64 in
  let shift a b ~down =
    let k = key a b in
    let before = Option.value (Hashtbl.find_opt counts k) ~default:0 in
    let after = max 0 (before + if down then 1 else -1) in
    Hashtbl.replace counts k after;
    if (before = 0) <> (after = 0) then set a b (after = 0)
  in
  let shift_node i ~down =
    for j = 0 to size - 1 do
      if j <> i then shift i j ~down
    done
  in
  (shift, shift_node)

let sim net =
  let open Apor_sim in
  let size = Network.size net in
  let link_shift, node_shift = link_downs ~size ~set:(Network.set_link_up net) in
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
  let corrupt_shift node delta =
    corrupt.(node) <- Float.min 1. (Float.max 0. (corrupt.(node) +. delta));
    for j = 0 to size - 1 do
      if j <> node then recompute_loss node j
    done
  in
  function
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
  (* The simulator cannot unschedule a node's timers, so a crash is
     isolation and a permanent kill is permanent isolation: the corpse
     keeps ticking into dead links, which is indistinguishable from a
     crash to its peers. *)
  | Crash i | Kill i -> node_shift i ~down:true
  | Restart i -> node_shift i ~down:false
  | Join _ -> ()
  | Frame_on { node; kind = Corrupt; rate } -> corrupt_shift node rate
  | Frame_off { node; kind = Corrupt; rate } -> corrupt_shift node (-.rate)
  | Frame_on { kind = Duplicate | Reorder; _ } | Frame_off { kind = Duplicate | Reorder; _ }
    ->
      (* no simulator analogue: the engine delivers each send at most
         once and in timestamp order *)
      ()

(* Loopback RTT is effectively zero, so a latency spike injects an
   absolute delay proportional to its factor; reordering holds a frame
   back long enough for the next protocol tick's frames to overtake. *)
let spike_delay_s factor = factor *. 0.005
let reorder_delay_s = 0.04

let udp (scn : Scenario.t) runtime =
  let module Runtime = Apor_deploy.Udp_runtime in
  let rng = Rng.split (Rng.make ~seed:scn.seed) "chaos.udp.injector" in
  let link_shift, node_shift =
    link_downs ~size:scn.n ~set:(Runtime.set_link_up runtime)
  in
  let burst : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let rtt_factor : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let corrupt = Array.make scn.n 0. in
  let duplicate = Array.make scn.n 0. in
  let reorder = Array.make scn.n 0. in
  let fate ~now:_ ~src ~dst : Runtime.frame_fate =
    let lost =
      match Hashtbl.find_opt burst (key src dst) with
      | Some p -> Rng.bernoulli rng ~p
      | None -> false
    in
    if lost then Drop
    else if corrupt.(src) > 0. && Rng.bernoulli rng ~p:corrupt.(src) then Corrupt
    else if duplicate.(src) > 0. && Rng.bernoulli rng ~p:duplicate.(src) then Duplicate
    else if reorder.(src) > 0. && Rng.bernoulli rng ~p:reorder.(src) then
      Delay reorder_delay_s
    else
      match Hashtbl.find_opt rtt_factor (key src dst) with
      | Some f -> Delay (spike_delay_s f)
      | None -> Pass
  in
  Runtime.set_fault_injector runtime (Some fate);
  let rates = function
    | Scenario.Corrupt -> corrupt
    | Duplicate -> duplicate
    | Reorder -> reorder
  in
  function
  | Link_set { a; b; up } -> link_shift a b ~down:(not up)
  | Loss_set { a; b; loss } -> Hashtbl.replace burst (key a b) loss
  | Loss_restore { a; b } -> Hashtbl.remove burst (key a b)
  | Rtt_scale { a; b; factor } -> Hashtbl.replace rtt_factor (key a b) factor
  | Rtt_restore { a; b } -> Hashtbl.remove rtt_factor (key a b)
  | Region_set { nodes; down } -> List.iter (fun i -> node_shift i ~down) nodes
  | Crash i | Kill i -> Runtime.kill_node runtime i
  | Restart i -> Runtime.restart_node runtime i
  | Join _ -> ()
  | Frame_on { node; kind; rate } ->
      let r = rates kind in
      r.(node) <- Float.min 1. (r.(node) +. rate)
  | Frame_off { node; kind; rate } ->
      let r = rates kind in
      r.(node) <- Float.max 0. (r.(node) -. rate)
