(** Executing a {!Scenario} end to end and scoring the run.

    One run body, written over {!Apor_overlay_core.Host.S}, serves both
    runtimes: it arms every {!Injector.timeline} action as a host timer,
    attaches the trace collector, the invariant {!Apor_trace.Oracle}
    (recording, not raising) and a light background workload, samples
    pair availability around every fault window from the host's
    [link_up] and each source's best hop, and distills a {!Score}.  Per
    runtime remain only the construction, how an action changes the
    world ({!Injector.sim}, {!Injector.udp}) and the UDP socket counters
    of {!Score.transport}.

    Metric accumulation happens in collector {e subscribers}, not by
    querying the ring afterwards: engine events dominate volume and wrap
    the ring long before a scenario ends, while subscribers see every
    event. *)

type outcome = {
  score : Score.t;
  violations : Apor_trace.Oracle.violation list;  (** all, chronological *)
  passed : bool;  (** {!Score.passed} with the scenario's recovery flag *)
}

type error =
  [ `Invalid of string  (** the scenario fails {!Scenario.validate} *)
  | `Sockets_unavailable of string  (** no loopback sockets: skip, not fail *) ]

val run_sim :
  ?params:Apor_topology.Internet.params ->
  ?progress:(string -> unit) ->
  Scenario.t ->
  (outcome, error) result
(** Replay on the simulator: synthetic Internet from the scenario's
    [(seed, n)], paper-default quorum configuration, [Dynamic]
    membership when it declares members/kill/join events and [Static]
    otherwise.
    Fully deterministic — same scenario, same bytes out of
    {!Score.to_json}. *)

val run_udp :
  ?base_port:int ->
  ?time_scale:float ->
  ?progress:(string -> unit) ->
  Scenario.t ->
  (outcome, error) result
(** Replay over real loopback UDP sockets with the deploy-local
    compressed timescales.  [time_scale] (default [1/30], the ratio of
    the deploy 0.5 s routing interval to the paper's 15 s) multiplies
    every scenario time; scores are converted back to scenario seconds.
    Node crashes close real sockets and restarts boot fresh cores that
    rejoin; membership scenarios run the runtime's [`Dynamic] mode, so
    kills are real socket closures and joins real quorum admissions.
    [`Sockets_unavailable] carries the errno text. *)
