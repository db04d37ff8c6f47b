type t = {
  id : int;
  origin : int;
  dst : int;
  hops : int;
  sent_at_us : int;
  payload_len : int;
}

let magic = 0xDA
let version = 1
let header_bytes = 19
let max_hops = 4

let u16_max = 0xFFFF
let u32_max = 0xFFFFFFFF
let u48_max = 0xFFFFFFFFFFFF

let size p = header_bytes + p.payload_len

(* The filler payload is a deterministic per-packet pattern, so corrupted
   batches fail header checks rather than silently truncating. *)
let write buf ~pos ~id ~origin ~dst ~hops ~sent_at_us ~payload_len =
  if id < 0 || id > u32_max then invalid_arg "Packet.encode: id out of range";
  if origin < 0 || origin > u16_max then invalid_arg "Packet.encode: origin out of range";
  if dst < 0 || dst > u16_max then invalid_arg "Packet.encode: dst out of range";
  if hops < 0 || hops > 0xFF then invalid_arg "Packet.encode: hops out of range";
  if sent_at_us < 0 || sent_at_us > u48_max then
    invalid_arg "Packet.encode: sent_at_us out of range";
  if payload_len < 0 || payload_len > u16_max then
    invalid_arg "Packet.encode: payload_len out of range";
  if pos < 0 || pos + header_bytes + payload_len > Bytes.length buf then
    invalid_arg "Packet.encode_into: buffer too small";
  Bytes.set_uint8 buf pos magic;
  Bytes.set_uint8 buf (pos + 1) version;
  Bytes.set_int32_be buf (pos + 2) (Int32.of_int id);
  Bytes.set_uint16_be buf (pos + 6) origin;
  Bytes.set_uint16_be buf (pos + 8) dst;
  Bytes.set_uint8 buf (pos + 10) hops;
  Bytes.set_uint16_be buf (pos + 11) (sent_at_us lsr 32);
  Bytes.set_int32_be buf (pos + 13) (Int32.of_int (sent_at_us land u32_max));
  Bytes.set_uint16_be buf (pos + 17) payload_len;
  Bytes.fill buf (pos + header_bytes) payload_len (Char.chr ((id + origin) land 0xFF))

let encode_into p buf ~pos =
  write buf ~pos ~id:p.id ~origin:p.origin ~dst:p.dst ~hops:p.hops ~sent_at_us:p.sent_at_us
    ~payload_len:p.payload_len

let encode p =
  let b = Bytes.create (size p) in
  encode_into p b ~pos:0;
  b

let payload_len_at buf pos = Bytes.get_uint16_be buf (pos + 17)

(* Why no whole packet starts at [pos] (constant strings: no allocation). *)
let error_at buf ~pos ~limit =
  if pos < 0 || pos + header_bytes > limit then Some "short header"
  else if Bytes.get_uint8 buf pos <> magic then Some "bad magic"
  else if Bytes.get_uint8 buf (pos + 1) <> version then Some "bad version"
  else if pos + header_bytes + payload_len_at buf pos > limit then Some "truncated payload"
  else None

let read buf pos f =
  f
    ~id:(Int32.to_int (Bytes.get_int32_be buf (pos + 2)) land u32_max)
    ~origin:(Bytes.get_uint16_be buf (pos + 6))
    ~dst:(Bytes.get_uint16_be buf (pos + 8))
    ~hops:(Bytes.get_uint8 buf (pos + 10))
    ~sent_at_us:
      ((Bytes.get_uint16_be buf (pos + 11) lsl 32)
      lor (Int32.to_int (Bytes.get_int32_be buf (pos + 13)) land u32_max))
    ~payload_len:(payload_len_at buf pos)

let decode_from buf ~pos ~limit =
  let limit = min limit (Bytes.length buf) in
  match error_at buf ~pos ~limit with
  | Some e -> Error ("Packet.decode: " ^ e)
  | None ->
      let p =
        read buf pos (fun ~id ~origin ~dst ~hops ~sent_at_us ~payload_len ->
            { id; origin; dst; hops; sent_at_us; payload_len })
      in
      Ok (p, pos + size p)

let scan buf ~len f =
  let len = min len (Bytes.length buf) in
  let rec go pos =
    match error_at buf ~pos ~limit:len with
    | Some _ -> pos
    | None ->
        read buf pos f;
        go (pos + header_bytes + payload_len_at buf pos)
  in
  go 0

let decode buf =
  match decode_from buf ~pos:0 ~limit:(Bytes.length buf) with
  | Ok (p, next) when next = Bytes.length buf -> Ok p
  | Ok _ -> Error "Packet.decode: trailing bytes"
  | Error _ as e -> e

let to_dgram p =
  Apor_overlay_core.Message.Dgram
    {
      id = p.id;
      origin = p.origin;
      dst = p.dst;
      hops = p.hops;
      sent_at_us = p.sent_at_us;
      payload = p.payload_len;
    }

let of_dgram = function
  | Apor_overlay_core.Message.Dgram { id; origin; dst; hops; sent_at_us; payload } ->
      Some { id; origin; dst; hops; sent_at_us; payload_len = payload }
  | _ -> None

let equal a b =
  a.id = b.id && a.origin = b.origin && a.dst = b.dst && a.hops = b.hops
  && a.sent_at_us = b.sent_at_us
  && a.payload_len = b.payload_len

let pp ppf p =
  Format.fprintf ppf "pkt#%d(%d->%d, hops=%d, %dB)" p.id p.origin p.dst p.hops
    p.payload_len
