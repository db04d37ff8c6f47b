(** Per-node bandwidth accounting.

    Bytes are binned into one-second buckets per node and traffic class, so
    the benches can reproduce both the run-average bandwidth of Figure 9
    and the "max over any 1-minute window" series of Figure 10.  Incoming
    and outgoing bytes are summed — every bandwidth number in the paper is
    "incoming and outgoing". *)

type cls = Apor_util.Msgclass.t =
  | Probe       (** probes and probe replies *)
  | Routing     (** link-state announcements and recommendations *)
  | Membership  (** membership traffic *)
  | Data        (** application packets forwarded over the overlay *)
(** Re-export of {!Apor_util.Msgclass.t} so transport-agnostic layers can
    classify messages without depending on the simulator. *)

val all_classes : cls list

type t

val create : n:int -> t

val n : t -> int

val record : t -> cls -> node:int -> bytes:int -> now:float -> unit
(** Account [bytes] for [node] at virtual time [now] (seconds >= 0).
    Called twice per delivered packet — once for the sender, once for the
    receiver. @raise Invalid_argument on negative time or out-of-range node. *)

val bytes_in_range : t -> cls:cls -> node:int -> t0:float -> t1:float -> int
(** Total bytes in the half-open interval [\[t0, t1)], at one-second bucket
    granularity: a byte recorded at time [now] is counted iff
    [floor t0 <= floor now < floor t1].  Consequently [t0 = t1] (and any
    pair with [floor t0 = floor t1]) yields 0, fractional bounds snap down
    to whole seconds, and adjacent windows [\[a, b)], [\[b, c)] partition the
    stream with no double counting.  Out-of-range times clamp to the
    recorded span. *)

val kbps : t -> classes:cls list -> node:int -> t0:float -> t1:float -> float
(** Average kilobits per second over the interval, classes summed. *)

val max_window_kbps :
  t -> classes:cls list -> node:int -> window:float -> t0:float -> t1:float -> float
(** Largest average over any aligned [window]-second span inside
    [t0, t1] — Figure 10's "max (any 1-min window)". *)
