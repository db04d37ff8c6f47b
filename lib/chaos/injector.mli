(** Replaying a {!Scenario} against a runtime.

    A scenario compiles to a {!timeline} of primitive {!action}s — each
    fault contributes one action when it starts and one when it clears.
    The runner arms every action as a host timer; what an action does to
    the world is the one part that differs per runtime ({!sim}, {!udp}).

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

(** {1 Changing the world}

    Each returns the interpreter for one run.  Neither handles [Join]:
    waking a joiner is the host's own [join_node]. *)

val sim : Apor_sim.Network.t -> action -> unit
(** Rewrite the simulated network.  Node crashes become network isolation
    (every link of the node down — the simulator keeps the core's state,
    so "restart" is a rejoin with memory; the UDP runtime does the real
    thing); a [Kill] is the same isolation, never lifted.  [Frame_fault
    Corrupt] becomes equivalent loss on the node's links;
    [Duplicate]/[Reorder] have no simulator analogue and are ignored. *)

val udp : Scenario.t -> Apor_deploy.Udp_runtime.t -> action -> unit
(** Drive real sockets: flaps and region outages force links down
    ([Udp_runtime.set_link_up]), crashes and kills close sockets and
    restarts boot fresh cores; loss, latency and frame faults live in a
    frame-fate hook installed on the runtime at once, whose draws come
    from a stream split off the scenario seed. *)
