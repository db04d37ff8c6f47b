open Apor_quorum
module Ev = Apor_trace.Event

type params = {
  gossip_interval_s : float;
  join_retry_s : float;
  propose_timeout_s : float;
  member_timeout_s : float;
}

let derive ~routing_interval_s ~refresh_s =
  {
    gossip_interval_s = 2. *. routing_interval_s;
    join_retry_s = routing_interval_s;
    propose_timeout_s = routing_interval_s;
    member_timeout_s = refresh_s;
  }

type role = Member of View.t | Joiner of { contacts : int list }

type timer = Gossip | Join_retry | Propose_check of { epoch : int }

type input =
  | Start
  | Deliver of { src_port : int; msg : Wire.t }
  | Tick of timer
  | Peer_report of { port : int; up : bool }
  | Leave

type output =
  | Send of { dst_port : int; msg : Wire.t }
  | Set_timer of { timer : timer; delay : float }
  | Install of View.t
  | Trace of Ev.t

(* A quorum write in flight: the sponsor has already installed [p_epoch]
   locally and announced it to its row/column; [p_acks] collects the
   epoch echoes.  Commit (join acks + member broadcast) happens at
   [p_needed] acks; every [Propose_check] retransmission relaxes the
   threshold by one so a half-dead quorum cannot wedge admission. *)
type proposal = {
  p_epoch : int;
  p_members : int list;
  p_quorum : int list;
  p_joiners : int list;
  mutable p_needed : int;
  mutable p_acks : int list;
}

type t = {
  port : int;
  params : params;
  trace : bool;
  genesis : View.t option;
  mutable view : View.t option;
  mutable prev : View.t option;  (* one-deep history, anchors View_delta repair *)
  mutable contacts : int list;
  mutable contact_idx : int;
  mutable pending_joins : int list;  (* sorted: canonical view-change ordering *)
  mutable pending_leaves : int list;  (* sorted *)
  mutable proposal : proposal option;
  mutable attempts : int;
  mutable joining : bool;  (* soliciting admission: Join_retry keeps firing *)
  mutable gossip_armed : bool;
  mutable started : bool;
  mutable left : bool;
  down_since : (int, float) Hashtbl.t;
}

let genesis_epoch = 1 lsl 16

let next_epoch ~prev ~sponsor =
  let counter = (prev lsr 16) + 1 in
  if counter > 0xFFFF then invalid_arg "Membership_core: epoch counter overflow";
  if sponsor < 0 || sponsor > 0xFFFF then
    invalid_arg "Membership_core: sponsor port exceeds 16 bits";
  (counter lsl 16) lor sponsor

let genesis_view ~members = View.create ~version:genesis_epoch ~members

let create ~params ~port ~role ?(trace = false) () =
  let genesis, contacts =
    match role with
    | Member v ->
        if not (View.contains_port v port) then
          invalid_arg "Membership_core.create: member role excludes own port";
        (Some v, [])
    | Joiner { contacts } -> (
        match List.filter (fun c -> c <> port) contacts with
        | [] -> invalid_arg "Membership_core.create: joiner needs contacts"
        | cs -> (None, cs))
  in
  {
    port;
    params;
    trace;
    genesis;
    view = None;
    prev = None;
    contacts;
    contact_idx = 0;
    pending_joins = [];
    pending_leaves = [];
    proposal = None;
    attempts = 0;
    joining = genesis = None;
    gossip_armed = false;
    started = false;
    left = false;
    down_since = Hashtbl.create 16;
  }

let port t = t.port
let current_view t = t.view
let epoch t = match t.view with Some v -> View.version v | None -> -1
let is_member t = match t.view with Some v -> View.contains_port v t.port | None -> false

type buffer = { now : float; mutable out_rev : output list }

let push buf o = buf.out_rev <- o :: buf.out_rev

let quorum_peers view port =
  match View.rank_of_port view port with
  | None -> []
  | Some rank ->
      let grid = Grid.build (View.size view) in
      Grid.rendezvous_servers grid rank |> List.map (fun r -> View.port_of_rank view r)

let install buf t v =
  t.prev <- t.view;
  t.view <- Some v;
  t.pending_joins <- List.filter (fun p -> not (View.contains_port v p)) t.pending_joins;
  t.pending_leaves <- List.filter (fun p -> View.contains_port v p) t.pending_leaves;
  push buf (Install v);
  if t.trace then
    push buf
      (Trace
         (Ev.View_adopted { node = t.port; epoch = View.version v; size = View.size v }));
  if View.contains_port v t.port then begin
    t.joining <- false;
    if not t.gossip_armed then begin
      t.gossip_armed <- true;
      push buf (Set_timer { timer = Gossip; delay = t.params.gossip_interval_s })
    end
  end

let announce epoch members dst = Send { dst_port = dst; msg = Wire.View_announce { epoch; members } }

let rec maybe_propose buf t =
  match (t.view, t.proposal) with
  | None, _ | _, Some _ -> ()
  | Some v, None when not (View.contains_port v t.port) -> ()
  | Some v, None ->
      if t.pending_joins <> [] || t.pending_leaves <> [] then begin
        let cur = Array.to_list (View.members v) in
        let members' =
          cur
          |> List.filter (fun p -> not (List.mem p t.pending_leaves))
          |> List.append t.pending_joins
          |> List.sort_uniq Int.compare
        in
        if members' = [] || not (List.mem t.port members') then begin
          (* a change that would erase the view or evict the sponsor is
             never self-proposed *)
          t.pending_joins <- [];
          t.pending_leaves <- []
        end
        else begin
          let joiners = t.pending_joins in
          let e' = next_epoch ~prev:(View.version v) ~sponsor:t.port in
          let v' = View.create ~version:e' ~members:members' in
          let quorum = quorum_peers v' t.port in
          let needed = max 1 ((List.length quorum + 1) / 2 - t.attempts) in
          t.proposal <-
            Some
              {
                p_epoch = e';
                p_members = members';
                p_quorum = quorum;
                p_joiners = joiners;
                p_needed = needed;
                p_acks = [];
              };
          install buf t v';
          List.iter (fun q -> push buf (announce e' members' q)) quorum;
          push buf
            (Set_timer
               { timer = Propose_check { epoch = e' }; delay = t.params.propose_timeout_s });
          if quorum = [] then commit buf t
        end
      end

and commit buf t =
  match t.proposal with
  | None -> ()
  | Some p ->
      t.proposal <- None;
      t.attempts <- 0;
      List.iter
        (fun j ->
          push buf
            (Send
               {
                 dst_port = j;
                 msg = Wire.Join_ack { epoch = p.p_epoch; members = p.p_members };
               });
          if t.trace then
            push buf
              (Trace (Ev.Join_admitted { sponsor = t.port; port = j; epoch = p.p_epoch })))
        p.p_joiners;
      List.iter
        (fun m ->
          if m <> t.port && (not (List.mem m p.p_quorum)) && not (List.mem m p.p_joiners)
          then push buf (announce p.p_epoch p.p_members m))
        p.p_members;
      maybe_propose buf t

(* Adopt a strictly newer view pushed by [src].  [ack] echoes the epoch
   back — the sponsor counts these echoes as its quorum-write acks. *)
let adopt ~ack buf t ~src v' =
  let e' = View.version v' in
  if e' > epoch t then begin
    if View.contains_port v' t.port then begin
      t.proposal <- None;
      t.attempts <- 0;
      install buf t v';
      if ack && src <> t.port then
        push buf (Send { dst_port = src; msg = Wire.Epoch_resync { epoch = e' } });
      maybe_propose buf t
    end
    else
      (* the cluster moved on without us: ask the announcer to readmit *)
      push buf (Send { dst_port = src; msg = Wire.Join_req { port = t.port } })
  end

(* Bring a node that reported [their_epoch] up to date: a one-behind
   receiver gets the compact delta (the Ls_resync idiom), anyone further
   back gets the full view. *)
let push_repair buf t ~dst ~their_epoch =
  match t.view with
  | None -> ()
  | Some v -> (
      let cur = Array.to_list (View.members v) in
      match t.prev with
      | Some pv when View.version pv = their_epoch ->
          let old = Array.to_list (View.members pv) in
          let joined = List.filter (fun p -> not (List.mem p old)) cur in
          let left = List.filter (fun p -> not (List.mem p cur)) old in
          push buf
            (Send
               {
                 dst_port = dst;
                 msg =
                   Wire.View_delta
                     {
                       base_epoch = their_epoch;
                       epoch = View.version v;
                       joined;
                       left;
                     };
               })
      | _ -> push buf (announce (View.version v) cur dst))

let handle_deliver buf t src msg =
  match msg with
  | Wire.Join_req { port = j } -> (
      match t.view with
      | Some v when View.contains_port v t.port && j <> t.port ->
          if View.contains_port v j then
            push buf
              (Send
                 {
                   dst_port = j;
                   msg =
                     Wire.Join_ack
                       {
                         epoch = View.version v;
                         members = Array.to_list (View.members v);
                       };
                 })
          else begin
            if not (List.mem j t.pending_joins) then begin
              t.pending_joins <- List.sort_uniq Int.compare (j :: t.pending_joins);
              if t.trace then
                push buf (Trace (Ev.Join_requested { node = j; contact = t.port }))
            end;
            (* it spoke, so it is alive: cancel any eviction evidence *)
            Hashtbl.remove t.down_since j;
            t.pending_leaves <- List.filter (fun p -> p <> j) t.pending_leaves;
            maybe_propose buf t
          end
      | _ -> ())
  | Wire.Leave_req { port = p } -> (
      match t.view with
      | Some v when View.contains_port v t.port && p <> t.port && View.contains_port v p
        ->
          t.pending_leaves <- List.sort_uniq Int.compare (p :: t.pending_leaves);
          t.pending_joins <- List.filter (fun q -> q <> p) t.pending_joins;
          maybe_propose buf t
      | _ -> ())
  | Wire.View_announce { epoch = e'; members } ->
      if members = [] then ()
      else if e' > epoch t then adopt ~ack:true buf t ~src (View.create ~version:e' ~members)
      else if e' < epoch t then push_repair buf t ~dst:src ~their_epoch:e'
  | Wire.Join_ack { epoch = e'; members } ->
      if members <> [] && e' > epoch t then
        adopt ~ack:false buf t ~src (View.create ~version:e' ~members)
      else if e' = epoch t && List.mem t.port members then
        (* a rejoiner whose leave never committed is still a member *)
        t.joining <- false
  | Wire.View_delta { base_epoch; epoch = e'; joined; left } -> (
      match t.view with
      | Some v when View.version v = base_epoch && e' > View.version v ->
          let members' =
            Array.to_list (View.members v)
            |> List.filter (fun p -> not (List.mem p left))
            |> List.append joined
            |> List.sort_uniq Int.compare
          in
          if members' <> [] then
            adopt ~ack:true buf t ~src (View.create ~version:e' ~members:members')
      | Some v when e' > View.version v ->
          (* epoch gap: solicit a full push by reporting where we are *)
          push buf
            (Send { dst_port = src; msg = Wire.Epoch_resync { epoch = View.version v } })
      | _ -> ())
  | Wire.Epoch_resync { epoch = e' } -> (
      match t.proposal with
      | Some p when e' = p.p_epoch && List.mem src p.p_quorum ->
          if not (List.mem src p.p_acks) then begin
            p.p_acks <- src :: p.p_acks;
            if List.length p.p_acks >= p.p_needed then commit buf t
          end
      | _ ->
          if is_member t then begin
            let e = epoch t in
            if e' < e then push_repair buf t ~dst:src ~their_epoch:e'
            else if e' > e then
              push buf (Send { dst_port = src; msg = Wire.Epoch_resync { epoch = e } })
          end)

let send_join_req buf t =
  match t.contacts with
  | [] -> ()
  | cs ->
      let c = List.nth cs (t.contact_idx mod List.length cs) in
      t.contact_idx <- t.contact_idx + 1;
      push buf (Send { dst_port = c; msg = Wire.Join_req { port = t.port } })

let handle_tick buf t = function
  | Gossip ->
      if not t.left then begin
        (match t.view with
        | Some v when View.contains_port v t.port ->
            let e = View.version v in
            List.iter
              (fun q -> push buf (Send { dst_port = q; msg = Wire.Epoch_resync { epoch = e } }))
              (quorum_peers v t.port);
            Array.iter
              (fun p ->
                if p <> t.port then
                  match Hashtbl.find_opt t.down_since p with
                  | Some since when buf.now -. since >= t.params.member_timeout_s ->
                      if not (List.mem p t.pending_leaves) then
                        t.pending_leaves <-
                          List.sort_uniq Int.compare (p :: t.pending_leaves)
                  | _ -> ())
              (View.members v);
            maybe_propose buf t
        | _ -> ());
        push buf (Set_timer { timer = Gossip; delay = t.params.gossip_interval_s })
      end
      else t.gossip_armed <- false
  | Join_retry ->
      if t.joining && (not t.left) && t.started then begin
        send_join_req buf t;
        push buf (Set_timer { timer = Join_retry; delay = t.params.join_retry_s })
      end
  | Propose_check { epoch = pe } -> (
      match t.proposal with
      | Some p when p.p_epoch = pe ->
          t.attempts <- t.attempts + 1;
          p.p_needed <- max 1 (p.p_needed - 1);
          if List.length p.p_acks >= p.p_needed then commit buf t
          else if t.attempts > List.length p.p_quorum + 2 then begin
            (* give up: the view is installed and gossip will spread it;
               unacked joiners re-trigger via their own retries *)
            t.proposal <- None;
            t.attempts <- 0
          end
          else begin
            List.iter
              (fun q ->
                if not (List.mem q p.p_acks) then
                  push buf (announce p.p_epoch p.p_members q))
              p.p_quorum;
            push buf
              (Set_timer
                 {
                   timer = Propose_check { epoch = pe };
                   delay = t.params.propose_timeout_s;
                 })
          end
      | _ -> ())

(* A [Start] after a graceful [Leave]: re-enter as a joiner, soliciting
   the other members of the last view.  That view is kept, so adopted
   epochs stay strictly monotone: admission is a strictly newer view that
   contains this node. *)
let rejoin buf t =
  t.left <- false;
  t.joining <- true;
  t.proposal <- None;
  t.attempts <- 0;
  t.pending_joins <- [];
  t.pending_leaves <- [];
  (match t.view with
  | Some v -> (
      match List.filter (fun p -> p <> t.port) (Array.to_list (View.members v)) with
      | [] -> ()
      | cs ->
          t.contacts <- cs;
          t.contact_idx <- 0)
  | None -> ());
  send_join_req buf t;
  push buf (Set_timer { timer = Join_retry; delay = t.params.join_retry_s })

let handle t ~now input =
  let buf = { now; out_rev = [] } in
  (match input with
  | Start ->
      if not t.started then begin
        t.started <- true;
        match t.genesis with
        | Some v -> install buf t v
        | None ->
            send_join_req buf t;
            push buf (Set_timer { timer = Join_retry; delay = t.params.join_retry_s })
      end
      else if t.left then rejoin buf t
  | Deliver { src_port; msg } ->
      if t.started && not t.left then handle_deliver buf t src_port msg
  | Tick timer -> if t.started then handle_tick buf t timer
  | Peer_report { port; up } ->
      if up then Hashtbl.remove t.down_since port
      else if not (Hashtbl.mem t.down_since port) then
        Hashtbl.replace t.down_since port now
  | Leave ->
      if not t.left then begin
        t.left <- true;
        match t.view with
        | Some v when View.contains_port v t.port -> (
            match
              Array.to_list (View.members v) |> List.filter (fun p -> p <> t.port)
            with
            | [] -> ()
            | sponsor :: _ ->
                push buf
                  (Send { dst_port = sponsor; msg = Wire.Leave_req { port = t.port } }))
        | _ -> ()
      end);
  List.rev buf.out_rev

let pp_timer ppf = function
  | Gossip -> Format.pp_print_string ppf "gossip"
  | Join_retry -> Format.pp_print_string ppf "join-retry"
  | Propose_check { epoch } ->
      Format.fprintf ppf "propose-check(e%d.%d)" (epoch lsr 16) (epoch land 0xFFFF)
