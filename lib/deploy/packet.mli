(** The data-plane wire codec.

    One user datagram on the real transport is a fixed 19-byte header
    followed by [payload_len] filler bytes.  The header leads with a
    magic byte distinct from the control {!Frame} magic, so
    a receiving socket can classify a datagram by its first byte; the
    explicit payload length lets many packets ride one UDP datagram back
    to back (the batch path of {!Udp_runtime.send_dgram}).

    Layout (big-endian):
    {v
      0      magic        0xDA
      1      version      1
      2..5   id           u32   unique per run
      6..7   origin       u16   originating overlay port
      8..9   dst          u16   destination overlay port
      10     hops         u8    overlay forwards so far
      11..16 sent_at_us   u48   origination time, microseconds
      17..18 payload_len  u16
    v}

    The simulator does not serialize packets — it carries the same
    fields as {!Apor_overlay_core.Message.Dgram} and charges
    [header_bytes + payload_len], so byte accounting agrees across
    runtimes. *)

type t = {
  id : int;
  origin : int;
  dst : int;
  hops : int;
  sent_at_us : int;
  payload_len : int;
}

val magic : int
(** 0xDA. *)

val version : int

val header_bytes : int
(** 19. *)

val size : t -> int
(** [header_bytes + payload_len] — the packet's full wire footprint. *)

val max_hops : int
(** Forwarding budget: a packet relayed more than this many times is
    dropped by the forwarder (one-hop routing needs 1; the budget only
    guards against pathological loops). *)

val write :
  bytes ->
  pos:int ->
  id:int ->
  origin:int ->
  dst:int ->
  hops:int ->
  sent_at_us:int ->
  payload_len:int ->
  unit
(** {!encode_into} from the fields themselves: the zero-allocation form
    the UDP runtime's batch path uses. *)

val encode_into : t -> bytes -> pos:int -> unit
(** Write the packet (header plus deterministic filler payload) at
    [pos]; exactly {!size} bytes.  Zero allocation — this is the batch
    hot path.  @raise Invalid_argument when a field exceeds its wire
    width or the buffer cannot hold the packet. *)

val encode : t -> bytes
(** Fresh-buffer convenience form (tests). *)

val decode_from : bytes -> pos:int -> limit:int -> (t * int, string) result
(** Parse one packet starting at [pos], bounded by [limit]; returns the
    packet and the offset just past it.  Total: bad magic/version,
    truncation and out-of-range fields yield [Error]. *)

val scan :
  bytes ->
  len:int ->
  (id:int -> origin:int -> dst:int -> hops:int -> sent_at_us:int -> payload_len:int -> unit) ->
  int
(** Hand every whole packet packed back to back in the first [len] bytes
    to the callback, field by field, without allocating; stop at the
    first malformed byte and return how many leading bytes were valid. *)

val decode : bytes -> (t, string) result
(** Single-packet form: the buffer must contain exactly one packet. *)

val to_dgram : t -> Apor_overlay_core.Message.t
(** The simulator-side carrier with the same fields
    ({!Apor_overlay_core.Message.Dgram}). *)

val of_dgram : Apor_overlay_core.Message.t -> t option
(** Inverse of {!to_dgram}; [None] for any other message. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
