open Apor_util

type frame_kind = Corrupt | Duplicate | Reorder

type fault =
  | Link_flap of { a : int; b : int; duration_s : float }
  | Loss_burst of { a : int; b : int; loss : float; duration_s : float }
  | Latency_spike of { a : int; b : int; factor : float; duration_s : float }
  | Region_outage of { nodes : int list; duration_s : float }
  | Node_crash of { node : int; down_s : float }
  | Node_kill of { node : int }
  | Node_join of { node : int }
  | Frame_fault of { node : int; kind : frame_kind; rate : float; duration_s : float }

type event = { at : float; fault : fault }

type t = {
  name : string;
  n : int;
  members : int;
  seed : int;
  warmup_s : float;
  horizon_s : float;
  grace_s : float;
  require_recovery : bool;
  events : event list;
}

(* Combinators *)

let at t fault = [ { at = t; fault } ]

let every ~period_s ~t0 ~t1 fault =
  if period_s <= 0. then invalid_arg "Scenario.every: period_s must be positive";
  let rec go t acc =
    if t >= t1 then List.rev acc else go (t +. period_s) ({ at = t; fault } :: acc)
  in
  go t0 []

let stagger ~t0 ~gap_s faults =
  List.mapi (fun i fault -> { at = t0 +. (float_of_int i *. gap_s); fault }) faults

let sample ~rng ~k ~t0 ~t1 gen =
  let times = List.init k (fun _ -> t0 +. Rng.float rng (t1 -. t0)) in
  let times = List.sort compare times in
  List.map (fun t -> { at = t; fault = gen rng }) times

let make ~name ~n ?members ~seed ?(warmup_s = 120.) ?(horizon_s = 600.) ?(grace_s = 45.)
    ?(require_recovery = true) groups =
  let members = match members with Some m -> m | None -> n in
  let events =
    List.stable_sort (fun a b -> compare a.at b.at) (List.concat groups)
  in
  { name; n; members; seed; warmup_s; horizon_s; grace_s; require_recovery; events }

(* Derived *)

let duration_of = function
  | Link_flap { duration_s; _ }
  | Loss_burst { duration_s; _ }
  | Latency_spike { duration_s; _ }
  | Region_outage { duration_s; _ }
  | Frame_fault { duration_s; _ } ->
      duration_s
  | Node_crash { down_s; _ } -> down_s
  | Node_kill _ | Node_join _ -> 0.

let clears_at ev = ev.at +. duration_of ev.fault

let last_clear t = List.fold_left (fun acc ev -> Float.max acc (clears_at ev)) 0. t.events

let uses_membership t =
  t.members < t.n
  || List.exists
       (fun ev -> match ev.fault with Node_kill _ | Node_join _ -> true | _ -> false)
       t.events

let live_at t time =
  let live = Array.make t.n false in
  for i = 0 to t.members - 1 do
    live.(i) <- true
  done;
  List.iter
    (fun ev ->
      if ev.at <= time then
        match ev.fault with
        | Node_kill { node } -> live.(node) <- false
        | Node_join { node } -> live.(node) <- true
        | _ -> ())
    t.events;
  List.filter (fun i -> live.(i)) (List.init t.n Fun.id)

let joins t =
  List.filter_map
    (fun ev -> match ev.fault with Node_join { node } -> Some (ev.at, node) | _ -> None)
    t.events

let scale t factor =
  let f fault =
    match fault with
    | Link_flap r -> Link_flap { r with duration_s = r.duration_s *. factor }
    | Loss_burst r -> Loss_burst { r with duration_s = r.duration_s *. factor }
    | Latency_spike r -> Latency_spike { r with duration_s = r.duration_s *. factor }
    | Region_outage r -> Region_outage { r with duration_s = r.duration_s *. factor }
    | Node_crash r -> Node_crash { r with down_s = r.down_s *. factor }
    | (Node_kill _ | Node_join _) as f -> f
    | Frame_fault r -> Frame_fault { r with duration_s = r.duration_s *. factor }
  in
  {
    t with
    warmup_s = t.warmup_s *. factor;
    horizon_s = t.horizon_s *. factor;
    grace_s = t.grace_s *. factor;
    events = List.map (fun ev -> { at = ev.at *. factor; fault = f ev.fault }) t.events;
  }

(* Validation *)

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_node ctx i =
    if i < 0 || i >= t.n then err "%s: node %d outside [0, %d)" ctx i t.n else Ok ()
  in
  let check_unit ctx v =
    if v < 0. || v > 1. then err "%s: probability %g outside [0, 1]" ctx v else Ok ()
  in
  let check_pos ctx v =
    if v <= 0. then err "%s: duration %g must be positive" ctx v else Ok ()
  in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check_fault = function
    | Link_flap { a; b; duration_s } ->
        let* () = check_node "link-flap" a in
        let* () = check_node "link-flap" b in
        if a = b then err "link-flap: %d--%d is not a link" a b
        else check_pos "link-flap" duration_s
    | Loss_burst { a; b; loss; duration_s } ->
        let* () = check_node "loss-burst" a in
        let* () = check_node "loss-burst" b in
        if a = b then err "loss-burst: %d--%d is not a link" a b
        else
          let* () = check_unit "loss-burst" loss in
          check_pos "loss-burst" duration_s
    | Latency_spike { a; b; factor; duration_s } ->
        let* () = check_node "latency-spike" a in
        let* () = check_node "latency-spike" b in
        if a = b then err "latency-spike: %d--%d is not a link" a b
        else if factor < 1. then err "latency-spike: factor %g must be >= 1" factor
        else check_pos "latency-spike" duration_s
    | Region_outage { nodes; duration_s } ->
        if nodes = [] then err "region-outage: empty region"
        else
          let rec all = function
            | [] -> check_pos "region-outage" duration_s
            | i :: rest ->
                let* () = check_node "region-outage" i in
                all rest
          in
          all nodes
    | Node_crash { node; down_s } ->
        let* () = check_node "node-crash" node in
        check_pos "node-crash" down_s
    | Node_kill { node } -> check_node "node-kill" node
    | Node_join { node } ->
        if node < t.members || node >= t.n then
          err "node-join: node %d is not a pending joiner (members %d, n %d)" node
            t.members t.n
        else Ok ()
    | Frame_fault { node; kind = _; rate; duration_s } ->
        let* () = check_node "frame fault" node in
        let* () = check_unit "frame fault" rate in
        check_pos "frame fault" duration_s
  in
  let rec check_events = function
    | [] -> Ok ()
    | ev :: rest ->
        let* () = check_fault ev.fault in
        if ev.at < t.warmup_s then
          err "event at t=%g fires inside the %gs warmup" ev.at t.warmup_s
        else if ev.at >= t.horizon_s then
          err "event at t=%g fires past the %gs horizon" ev.at t.horizon_s
        else check_events rest
  in
  (* Replay of kill/join effects on the initial member set, in event
     order: a kill must hit a live member, a join a still-pending one. *)
  let check_membership () =
    let live = Array.make (Int.max t.n 1) false in
    for i = 0 to Int.min t.members t.n - 1 do
      live.(i) <- true
    done;
    let rec go = function
      | [] -> Ok ()
      | ev :: rest -> (
          match ev.fault with
          | Node_kill { node } ->
              if not live.(node) then
                err "node-kill at t=%g: node %d is not live there" ev.at node
              else begin
                live.(node) <- false;
                go rest
              end
          | Node_join { node } ->
              if live.(node) then
                err "node-join at t=%g: node %d is already a member" ev.at node
              else begin
                live.(node) <- true;
                go rest
              end
          | _ -> go rest)
    in
    go t.events
  in
  if t.n < 2 then err "scenario needs n >= 2 nodes (got %d)" t.n
  else if t.members < 2 || t.members > t.n then
    err "members %d outside [2, n=%d]" t.members t.n
  else if t.warmup_s < 0. then err "negative warmup %g" t.warmup_s
  else if t.horizon_s <= t.warmup_s then
    err "horizon %g must exceed warmup %g" t.horizon_s t.warmup_s
  else if t.grace_s < 0. then err "negative grace %g" t.grace_s
  else
    let* () = check_events t.events in
    let* () = check_membership () in
    if t.require_recovery && t.events <> [] && last_clear t +. t.grace_s > t.horizon_s then
      err
        "last fault clears at t=%g; recovery needs %gs of grace but the horizon is %g \
         (extend the horizon or drop require-recovery)"
        (last_clear t) t.grace_s t.horizon_s
    else Ok ()

(* Pretty-printing *)

let kind_name = function Corrupt -> "corrupt" | Duplicate -> "duplicate" | Reorder -> "reorder"

let pp_fault ppf = function
  | Link_flap { a; b; duration_s } ->
      Format.fprintf ppf "link-flap %d--%d for %gs" a b duration_s
  | Loss_burst { a; b; loss; duration_s } ->
      Format.fprintf ppf "loss-burst %d--%d p=%g for %gs" a b loss duration_s
  | Latency_spike { a; b; factor; duration_s } ->
      Format.fprintf ppf "latency-spike %d--%d x%g for %gs" a b factor duration_s
  | Region_outage { nodes; duration_s } ->
      Format.fprintf ppf "region-outage {%s} for %gs"
        (String.concat "," (List.map string_of_int nodes))
        duration_s
  | Node_crash { node; down_s } -> Format.fprintf ppf "node-crash %d down %gs" node down_s
  | Node_kill { node } -> Format.fprintf ppf "node-kill %d (permanent)" node
  | Node_join { node } -> Format.fprintf ppf "node-join %d" node
  | Frame_fault { node; kind; rate; duration_s } ->
      Format.fprintf ppf "frame-%s node %d p=%g for %gs" (kind_name kind) node rate duration_s

let pp ppf t =
  Format.fprintf ppf "@[<v>scenario %s: n=%d seed=%d warmup=%gs horizon=%gs grace=%gs@,"
    t.name t.n t.seed t.warmup_s t.horizon_s t.grace_s;
  List.iter (fun ev -> Format.fprintf ppf "  t=%8.2f  %a@," ev.at pp_fault ev.fault) t.events;
  Format.fprintf ppf "@]"

(* Scenario files.

   Header forms ([name], [n], [seed], ...) may appear in any order but
   must precede the first event form: wildcard resolution draws from a
   stream derived from the scenario seed, and the draws happen in file
   order, so the seed has to be known first. *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let atomv what = function
  | Sexp.Atom a -> a
  | List _ as s -> fail "expected %s, got %a" what (fun () -> Format.asprintf "%a" Sexp.pp) s

let intv what s =
  let a = atomv what s in
  match int_of_string_opt a with Some i -> i | None -> fail "expected %s, got %s" what a

let floatv what s =
  let a = atomv what s in
  match float_of_string_opt a with Some f -> f | None -> fail "expected %s, got %s" what a

let boolv what s =
  match atomv what s with
  | "true" -> true
  | "false" -> false
  | a -> fail "expected %s (true/false), got %s" what a

(* [*] draws a node; a second [*] on the same link draws until distinct. *)
let node rng n ?ne s =
  match s with
  | Sexp.Atom "*" ->
      let rec draw () =
        let i = Rng.int rng n in
        if Some i = ne then draw () else i
      in
      draw ()
  | _ -> intv "node id" s

let parse_fault rng n = function
  | Sexp.List [ Atom "link-flap"; a; b; d ] ->
      let a = node rng n a in
      Link_flap { a; b = node rng n ~ne:a b; duration_s = floatv "duration" d }
  | List [ Atom "loss-burst"; a; b; p; d ] ->
      let a = node rng n a in
      Loss_burst
        { a; b = node rng n ~ne:a b; loss = floatv "loss" p; duration_s = floatv "duration" d }
  | List [ Atom "latency-spike"; a; b; f; d ] ->
      let a = node rng n a in
      Latency_spike
        {
          a;
          b = node rng n ~ne:a b;
          factor = floatv "factor" f;
          duration_s = floatv "duration" d;
        }
  | List [ Atom "region-outage"; List members; d ] ->
      let nodes =
        List.fold_left
          (fun acc s ->
            let rec draw () =
              match s with
              | Sexp.Atom "*" ->
                  let i = Rng.int rng n in
                  if List.mem i acc then draw () else i
              | _ -> intv "node id" s
            in
            draw () :: acc)
          [] members
      in
      Region_outage { nodes = List.rev nodes; duration_s = floatv "duration" d }
  | List [ Atom "node-crash"; i; d ] ->
      Node_crash { node = node rng n i; down_s = floatv "downtime" d }
  (* kill/join targets are explicit: a wildcard draw could hit a pending
     joiner (kill) or a live member (join) and fail validation by luck *)
  | List [ Atom "node-kill"; i ] -> Node_kill { node = intv "node id" i }
  | List [ Atom "node-join"; i ] -> Node_join { node = intv "node id" i }
  | List [ Atom ("frame-corrupt" | "frame-duplicate" | "frame-reorder" as which); i; p; d ]
    ->
      let kind =
        match which with
        | "frame-corrupt" -> Corrupt
        | "frame-duplicate" -> Duplicate
        | _ -> Reorder
      in
      Frame_fault
        { node = node rng n i; kind; rate = floatv "rate" p; duration_s = floatv "duration" d }
  | s -> fail "unknown fault form %s" (Format.asprintf "%a" Sexp.pp s)

let parse_event rng n = function
  | Sexp.List [ Atom "at"; t; f ] -> at (floatv "time" t) (parse_fault rng n f)
  | List [ Atom "every"; p; t0; t1; f ] ->
      every ~period_s:(floatv "period" p) ~t0:(floatv "t0" t0) ~t1:(floatv "t1" t1)
        (parse_fault rng n f)
  | List (Atom "stagger" :: t0 :: gap :: (_ :: _ as faults)) ->
      stagger ~t0:(floatv "t0" t0) ~gap_s:(floatv "gap" gap)
        (List.map (parse_fault rng n) faults)
  | List [ Atom "sample"; k; t0; t1; f ] ->
      sample ~rng ~k:(intv "count" k) ~t0:(floatv "t0" t0) ~t1:(floatv "t1" t1) (fun rng ->
          parse_fault rng n f)
  | s -> fail "unknown event form %s" (Format.asprintf "%a" Sexp.pp s)

let of_string input =
  match Sexp.parse input with
  | Error _ as e -> e
  | Ok forms -> (
      try
        let name = ref None
        and n = ref None
        and members = ref None
        and seed = ref None
        and warmup = ref 120.
        and horizon = ref 600.
        and grace = ref 45.
        and require_recovery = ref true in
        let header = function
          | Sexp.List [ Sexp.Atom "name"; v ] -> name := Some (atomv "name" v)
          | List [ Atom "n"; v ] -> n := Some (intv "n" v)
          | List [ Atom "members"; v ] -> members := Some (intv "members" v)
          | List [ Atom "seed"; v ] -> seed := Some (intv "seed" v)
          | List [ Atom "warmup"; v ] -> warmup := floatv "warmup" v
          | List [ Atom "horizon"; v ] -> horizon := floatv "horizon" v
          | List [ Atom "grace"; v ] -> grace := floatv "grace" v
          | List [ Atom "require-recovery"; v ] ->
              require_recovery := boolv "require-recovery" v
          | s -> fail "unknown header form %s" (Format.asprintf "%a" Sexp.pp s)
        in
        let is_event = function
          | Sexp.List (Sexp.Atom ("at" | "every" | "stagger" | "sample") :: _) -> true
          | _ -> false
        in
        let rec headers = function
          | s :: rest when not (is_event s) ->
              header s;
              headers rest
          | rest -> rest
        in
        let event_forms = headers forms in
        let name = match !name with Some v -> v | None -> fail "missing (name ...)" in
        let n = match !n with Some v -> v | None -> fail "missing (n ...)" in
        let seed = match !seed with Some v -> v | None -> fail "missing (seed ...)" in
        if n < 2 then fail "(n %d): need at least 2 nodes" n;
        let rng = Rng.split (Rng.make ~seed) "scenario.wildcards" in
        let groups = List.map (parse_event rng n) event_forms in
        let t =
          make ~name ~n ?members:!members ~seed ~warmup_s:!warmup ~horizon_s:!horizon
            ~grace_s:!grace ~require_recovery:!require_recovery groups
        in
        match validate t with Ok () -> Ok t | Error e -> Error e
      with Parse msg -> Error msg)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> (
      match of_string contents with
      | Ok _ as ok -> ok
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
