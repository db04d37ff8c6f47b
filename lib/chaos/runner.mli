(** Executing a {!Scenario} end to end and scoring the run.

    Both runners build an overlay, attach the trace collector and the
    invariant {!Apor_trace.Oracle} (recording, not raising), install the
    {!Injector}, drive the run while sampling pair availability around
    every fault window, and distill a {!Score}.

    Metric accumulation happens in collector {e subscribers}, not by
    querying the ring afterwards: engine events dominate volume and wrap
    the ring long before a scenario ends, while subscribers see every
    event. *)

type outcome = {
  score : Score.t;
  violations : Apor_trace.Oracle.violation list;  (** all, chronological *)
  passed : bool;  (** {!Score.passed} with the scenario's recovery flag *)
}

val run_sim :
  ?params:Apor_topology.Internet.params ->
  ?progress:(string -> unit) ->
  Scenario.t ->
  (outcome, string) result
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
  (outcome, string) result
(** Replay over real loopback UDP sockets with the deploy-local
    compressed timescales.  [time_scale] (default [1/30], the ratio of
    the deploy 0.5 s routing interval to the paper's 15 s) multiplies
    every scenario time; scores are converted back to scenario seconds.
    Node crashes close real sockets and restarts boot fresh cores that
    rejoin; membership scenarios run the runtime's [`Dynamic] mode, so
    kills are real socket closures and joins real quorum admissions.
    Errors: invalid scenarios and socket-less environments ([Error] with
    the errno text — callers treat it as a skip, matching
    [apor deploy-local]). *)
