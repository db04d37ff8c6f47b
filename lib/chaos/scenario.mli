(** Declarative fault scenarios: a typed, seed-deterministic timeline of
    faults that the injectors replay — identically — against the
    simulator and the real-UDP runtime.

    A scenario is data: a name, an overlay size, a seed, a warmup/horizon
    envelope, a grace window for invariant scoring, and a list of timed
    faults.  Build one in OCaml with the combinators below, or load one
    from a [.scn] s-expression file ({!of_string}/{!load}); either way the
    result is a plain value the runner can hash, scale, print and replay.

    Times are {e scenario seconds}.  On the simulator they are virtual
    seconds 1:1; the UDP runner compresses them ({!scale}) so the paper's
    minutes-long timelines replay in seconds of wall clock at the deploy
    configuration's faster protocol cadence. *)

open Apor_util

type frame_kind =
  | Corrupt  (** flip a frame header byte; the receiver rejects it *)
  | Duplicate  (** deliver the datagram twice *)
  | Reorder  (** hold the datagram back so younger frames overtake it *)

type fault =
  | Link_flap of { a : int; b : int; duration_s : float }
      (** the link [a -- b] goes down, then comes back *)
  | Loss_burst of { a : int; b : int; loss : float; duration_s : float }
      (** loss probability on [a -- b] jumps to [loss], then reverts *)
  | Latency_spike of { a : int; b : int; factor : float; duration_s : float }
      (** RTT of [a -- b] multiplies by [factor], then reverts *)
  | Region_outage of { nodes : int list; duration_s : float }
      (** correlated failure: every link touching the region goes down *)
  | Node_crash of { node : int; down_s : float }
      (** crash + restart-with-rejoin after [down_s] *)
  | Node_kill of { node : int }
      (** permanent crash — the node never comes back (decentralized
          membership: the survivors keep running without it) *)
  | Node_join of { node : int }
      (** a pending joiner (port in [\[members, n)]) boots and is admitted
          by the decentralized quorum-write protocol *)
  | Frame_fault of { node : int; kind : frame_kind; rate : float; duration_s : float }
      (** each outbound frame of [node] suffers [kind] with probability
          [rate]; UDP-runtime faults ([Corrupt] maps to loss on the
          simulator, [Duplicate]/[Reorder] have no simulator analogue) *)

type event = { at : float; fault : fault }

type t = {
  name : string;
  n : int;
  members : int;
      (** initial member count: ports [0 .. members-1] are live from the
          start, the rest are pending joiners ([members = n], the
          default, is the classic static overlay) *)
  seed : int;
  warmup_s : float;  (** faults may only start after this *)
  horizon_s : float;  (** total run length *)
  grace_s : float;  (** slack around each fault for scoring/recovery *)
  require_recovery : bool;
      (** when true, the run fails unless every pair holds a fresh
          recommendation at the horizon *)
  events : event list;  (** sorted by [at], ties in construction order *)
}

val make :
  name:string ->
  n:int ->
  ?members:int ->
  seed:int ->
  ?warmup_s:float ->
  ?horizon_s:float ->
  ?grace_s:float ->
  ?require_recovery:bool ->
  event list list ->
  t
(** Concatenates the combinator results and sorts them by time (stable).
    Defaults: warmup 120 s, horizon 600 s, grace 45 s, recovery required. *)

val validate : t -> (unit, string) result
(** Node ids within [0, n), rates/losses within [0, 1], positive
    durations, faults inside [warmup, horizon), and enough room after the
    last fault clears for recovery ([grace_s]).  Membership scenarios
    additionally: [members] within [2, n], every [node-kill] hits a node
    live at that instant and every [node-join] a still-pending one. *)

(** {1 Combinators} *)

val at : float -> fault -> event list

val every : period_s:float -> t0:float -> t1:float -> fault -> event list
(** The fault repeated at [t0], [t0 + period], ... strictly before [t1]. *)

val stagger : t0:float -> gap_s:float -> fault list -> event list
(** The faults in order, [gap_s] apart, starting at [t0]. *)

val sample : rng:Rng.t -> k:int -> t0:float -> t1:float -> (Rng.t -> fault) -> event list
(** [k] faults drawn from the generator at sorted uniform times in
    [t0, t1).  Deterministic for a given rng state. *)

(** {1 Derived} *)

val kind_name : frame_kind -> string
(** ["corrupt"], ["duplicate"] or ["reorder"]. *)

val duration_of : fault -> float

val clears_at : event -> float
(** [at + duration] — when the fault's effect ends (restart time for a
    crash). *)

val last_clear : t -> float
(** 0 when there are no events. *)

val uses_membership : t -> bool
(** Does the scenario exercise decentralized membership — a pending
    joiner ([members < n]) or any [node-kill]/[node-join] event?  The
    runners select [Dynamic] membership when true. *)

val live_at : t -> float -> int list
(** The declared member set at a scenario instant: the initial
    [0 .. members-1] plus joins at or before [time], minus kills.
    Crashes don't count — a crashed node restarts and remains a member.
    Sorted ascending. *)

val joins : t -> (float * int) list
(** Every [node-join] as [(at, node)], in event order. *)

val scale : t -> float -> t
(** Multiply every time and duration (warmup, horizon, grace, event times,
    fault durations) by the factor — the UDP runner's clock compression. *)

(** {1 Files} *)

val of_string : string -> (t, string) result
(** Parse a [.scn] scenario (see EXPERIMENTS.md for the grammar).  All
    randomness — [*] wildcards and [sample] forms — is resolved here,
    deterministically from the scenario's own seed, so the loaded value is
    a fixed timeline. *)

val load : string -> (t, string) result
(** [of_string] over a file's contents. *)

val pp_fault : Format.formatter -> fault -> unit

val pp : Format.formatter -> t -> unit
(** The scenario as a readable timeline, one event per line. *)
