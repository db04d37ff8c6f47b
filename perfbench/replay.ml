(* The Node_core layer, measured by replay.

   A traced simulator run records every node's [(now, input, outputs)]
   stream through [Runtime.set_tap].  Afterwards each stream is fed into
   a fresh core built the way [Cluster] builds it, one [Node_core.handle]
   call at a time, timing each call and counting its minor words by input
   kind.  The fresh cores run untraced, like the cores of a timed run.
   Every replayed output list is compared with the recorded one, less its
   trace events ([Node_core.equal_output]); a mismatch means the
   recording no longer shows what the core saw, and the timings are
   withheld.

   The same records give the codec loops their message mix. *)

module Node_core = Apor_overlay_core.Node_core
module Message = Apor_overlay_core.Message

type record = { now : float; input : Node_core.input; outputs : Node_core.output list }

(* Each record is kept marshalled: a deep copy taken at tap time, so later
   in-place updates (the link-state table overwrites stored snapshots, and
   the engine hands the sender's message object to the receiver) cannot
   reach it, and a compact one, so a whole run's streams fit in memory.
   The replay cores run untraced, like the cores of a timed run, so a
   record keeps no [Trace] outputs. *)
type recorder = { logs : string list array  (** per port, newest first *) }

let recorder ~n = { logs = Array.make n [] }

let record t ~port now input outputs =
  let outputs = List.filter (function Node_core.Trace _ -> false | _ -> true) outputs in
  t.logs.(port) <- Marshal.to_string { now; input; outputs } [] :: t.logs.(port)

let unmarshal s : record = Marshal.from_string s 0

(* --- input kinds --------------------------------------------------------- *)

let kinds =
  [|
    "deliver.probe"; "deliver.probe_reply"; "deliver.ls_full"; "deliver.ls_delta";
    "deliver.ls_resync"; "deliver.recommend"; "deliver.member"; "tick.probe";
    "tick.probe_timeout"; "tick.router"; "tick.member"; "link_report";
  |]

(* Index into [kinds]; -1 for the rare inputs no layer metric names
   (start, view install, relays, legacy coordinator traffic). *)
let kind_of (input : Node_core.input) =
  match input with
  | Node_core.Deliver { msg; _ } -> (
      match msg with
      | Message.Probe _ -> 0
      | Message.Probe_reply _ -> 1
      | Message.Link_state _ -> 2
      | Message.Link_state_delta _ -> 3
      | Message.Ls_resync _ -> 4
      | Message.Recommend _ -> 5
      | Message.Member _ -> 6
      | Message.Join _ | Message.Leave _ | Message.View _ | Message.Data _
      | Message.Relay _ | Message.Dgram _ ->
          -1)
  | Node_core.Tick timer -> (
      match timer with
      | Node_core.Probe_timer _ -> 7
      | Node_core.Probe_timeout _ -> 8
      | Node_core.Router_tick -> 9
      | Node_core.Member_timer _ -> 10
      | Node_core.Join_retry -> -1)
  | Node_core.Link_report _ -> 11
  | Node_core.Start | Node_core.Install_view _ | Node_core.Send_data _ | Node_core.Leave
    ->
      -1

(* --- replay -------------------------------------------------------------- *)

type stats = {
  calls : int array;
  ns : int array;
  words : float array;
  outputs : int array;
  mutable window_ns : int;  (** every in-window call, named kind or not *)
  mutable replayed : int;
  mutable mismatches : int;
}

(* Cost of one back-to-back pair of clock reads, subtracted per call. *)
let clock_overhead_ns () =
  let reps = 100_000 in
  let a = Probe.mono_ns () in
  for _ = 1 to reps do
    ignore (Probe.mono_ns ())
  done;
  (Probe.mono_ns () - a) / reps

let same_outputs recorded got =
  List.length recorded = List.length got && List.for_all2 Node_core.equal_output recorded got

(* Replays every stream, consuming the recorder.  Timings cover the calls
   whose [now] lies in [\[t0, t1)]; fidelity is checked on every call.
   [on_window_send] sees each in-window Send output, in replay order. *)
let replay t ~make_core ~t0 ~t1 ~on_window_send =
  let k = Array.length kinds in
  let st =
    {
      calls = Array.make k 0;
      ns = Array.make k 0;
      words = Array.make k 0.;
      outputs = Array.make k 0;
      window_ns = 0;
      replayed = 0;
      mismatches = 0;
    }
  in
  let overhead = clock_overhead_ns () in
  Array.iteri
    (fun port log ->
      t.logs.(port) <- [];
      let core = make_core port in
      List.iter
        (fun bytes ->
          let r = unmarshal bytes in
          let w0 = Gc.minor_words () in
          let a = Probe.mono_ns () in
          let got = Node_core.handle core ~now:r.now r.input in
          let b = Probe.mono_ns () in
          let w1 = Gc.minor_words () in
          st.replayed <- st.replayed + 1;
          if not (same_outputs r.outputs got) then st.mismatches <- st.mismatches + 1;
          if r.now >= t0 && r.now < t1 then begin
            let ns = max 0 (b - a - overhead) in
            st.window_ns <- st.window_ns + ns;
            let i = kind_of r.input in
            if i >= 0 then begin
              st.calls.(i) <- st.calls.(i) + 1;
              st.ns.(i) <- st.ns.(i) + ns;
              st.words.(i) <- st.words.(i) +. (w1 -. w0);
              st.outputs.(i) <- st.outputs.(i) + List.length got
            end;
            List.iter
              (function
                | Node_core.Send { dst_port = _; msg } -> on_window_send ~src:port msg
                | Node_core.Set_timer _ | Node_core.Deliver_data _ | Node_core.Recommend _
                | Node_core.Trace _ ->
                    ())
              r.outputs
          end)
        (List.rev log))
    t.logs;
  st

let report (st : stats) r =
  Report.metric r "core.replay_mismatches" (float_of_int st.mismatches) "count";
  let withheld = st.mismatches > 0 in
  if withheld then
    Report.note r
      (Printf.sprintf "  core.*: %d of %d replayed calls mismatched; timings withheld (0)"
         st.mismatches st.replayed);
  Array.iteri
    (fun i kind ->
      let calls = st.calls.(i) in
      let per x = if calls = 0 || withheld then 0. else x /. float_of_int calls in
      Report.metric r ("core.calls." ^ kind) (float_of_int calls) "count";
      Report.metric r ("core.ns_per_call." ^ kind) (per (float_of_int st.ns.(i))) "ns";
      Report.metric r ("core.words_per_call." ^ kind) (per st.words.(i)) "words";
      Report.metric r ("core.outputs_per_call." ^ kind)
        (if calls = 0 then 0. else float_of_int st.outputs.(i) /. float_of_int calls)
        "count")
    kinds

(* Cores zeroed: the per-layer keys a run without a replayable core
   (the UDP runtime keeps its runtimes private) still has to carry. *)
let report_absent r =
  report
    {
      calls = Array.make (Array.length kinds) 0;
      ns = Array.make (Array.length kinds) 0;
      words = Array.make (Array.length kinds) 0.;
      outputs = Array.make (Array.length kinds) 0;
      window_ns = 0;
      replayed = 0;
      mismatches = 0;
    }
    r
