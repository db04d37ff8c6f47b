(** Replaying a {!Scenario} against a runtime.

    A scenario compiles to a {!timeline} of primitive {!action}s — each
    fault contributes one action when it starts and one when it clears.
    The simulator injector installs the whole timeline as engine timers
    ({!install_sim}); the UDP injector ({!Udp}) is a stateful interpreter
    the runner drives between [Udp_runtime.run] segments, plus a
    frame-fate hook wired into [Udp_runtime.set_fault_injector].

    Concurrent faults compose: link liveness is reference-counted (a link
    downed by both a flap and a region outage stays down until {e both}
    clear), loss multiplies ([1 - (1-burst)(1-corrupt_a)(1-corrupt_b)]),
    and latency/burst overlaps on one link are last-writer-wins. *)

type action =
  | Link_set of { a : int; b : int; up : bool }
  | Loss_set of { a : int; b : int; loss : float }
  | Loss_restore of { a : int; b : int }
  | Rtt_scale of { a : int; b : int; factor : float }
  | Rtt_restore of { a : int; b : int }
  | Region_set of { nodes : int list; down : bool }
  | Crash of int
  | Restart of int
  | Kill of int  (** permanent crash — no matching [Restart] ever comes *)
  | Join of int  (** wake a pending joiner (decentralized membership) *)
  | Frame_on of { node : int; kind : Scenario.frame_kind; rate : float }
  | Frame_off of { node : int; kind : Scenario.frame_kind; rate : float }

val pp_action : Format.formatter -> action -> unit

val timeline : Scenario.t -> (float * action) list
(** Start/clear action pairs for every event, sorted by time (stable, so
    simultaneous actions apply in event order). *)

val windows : Scenario.t -> (float * float) list
(** [(at, clears_at)] per event, sorted by start — the fault windows the
    scorer measures availability and grace against. *)

(** {1 Simulator} *)

val install_sim :
  'msg Apor_sim.Engine.t ->
  ?on_join:(int -> unit) ->
  Scenario.t ->
  unit
(** Schedule every timeline action as an engine timer mutating the
    engine's {!Apor_sim.Network}.  Node crashes become network isolation
    (every link of the node down — the simulator keeps the core's state,
    so "restart" is a rejoin with memory; the UDP runtime does the real
    thing); a [Kill] is the same isolation, never lifted.  A [Join] calls
    [on_join] (the runner passes [Cluster.join_node]).  [Frame_fault
    Corrupt] becomes equivalent loss on the node's links;
    [Duplicate]/[Reorder] have no simulator analogue and are ignored.
    @raise Invalid_argument if the scenario contains node-join events
    and [on_join] is [None]. *)

(** {1 Real UDP} *)

module Udp : sig
  type t

  val create : Scenario.t -> t
  (** Fault-state interpreter; loss/corruption draws come from a stream
      split off the scenario seed. *)

  val attach : t -> Apor_deploy.Udp_runtime.t -> unit
  (** Install the frame-fate hook ([Drop]/[Corrupt]/[Duplicate]/[Delay])
      reflecting the interpreter's current fault state. *)

  val apply : t -> Apor_deploy.Udp_runtime.t -> action -> unit
  (** Apply one timeline action now.  [Crash]/[Restart]/[Kill]/[Join]
      call the runtime's kill/restart/join; everything else mutates
      interpreter state read by the fate hook. *)

  val link_blocked : t -> int -> int -> bool
  (** Is the (undirected) link currently forced down by a flap or region
      outage?  Used by availability scoring. *)
end
