type msg_type =
  | Setup
  | Call_proceeding
  | Connect
  | Connect_ack
  | Release
  | Release_complete
  | Status
  | Status_enquiry

let msg_type_code = function
  | Setup -> 0x05
  | Call_proceeding -> 0x02
  | Connect -> 0x07
  | Connect_ack -> 0x0F
  | Release -> 0x4D
  | Release_complete -> 0x5A
  | Status -> 0x7D
  | Status_enquiry -> 0x75

let msg_type_of_code = function
  | 0x05 -> Some Setup
  | 0x02 -> Some Call_proceeding
  | 0x07 -> Some Connect
  | 0x0F -> Some Connect_ack
  | 0x4D -> Some Release
  | 0x5A -> Some Release_complete
  | 0x7D -> Some Status
  | 0x75 -> Some Status_enquiry
  | _ -> None

let msg_type_name = function
  | Setup -> "SETUP"
  | Call_proceeding -> "CALL_PROCEEDING"
  | Connect -> "CONNECT"
  | Connect_ack -> "CONNECT_ACK"
  | Release -> "RELEASE"
  | Release_complete -> "RELEASE_COMPLETE"
  | Status -> "STATUS"
  | Status_enquiry -> "STATUS_ENQUIRY"

type t = {
  call_ref : int;
  from_originator : bool;
  typ : msg_type;
  ies : Ie.t list;
}

let protocol_discriminator = 0x09

let header_bytes = 8

let v ?(from_originator = true) ~call_ref typ ies =
  if call_ref < 0 || call_ref > 0x7FFFFF then
    invalid_arg "Sigmsg.v: call reference out of 23-bit range";
  { call_ref; from_originator; typ; ies }

type error =
  [ `Too_short of int
  | `Bad_discriminator of int
  | `Bad_call_ref_length of int
  | `Unknown_type of int
  | `Bad_length of int
  | Ie.error ]

let pp_error ppf = function
  | `Too_short n -> Format.fprintf ppf "message too short (%d bytes)" n
  | `Bad_discriminator d -> Format.fprintf ppf "bad protocol discriminator 0x%02x" d
  | `Bad_call_ref_length n -> Format.fprintf ppf "bad call reference length %d" n
  | `Unknown_type c -> Format.fprintf ppf "unknown message type 0x%02x" c
  | `Bad_length n -> Format.fprintf ppf "bad message length %d" n
  | #Ie.error as e -> Ie.pp_error ppf e

let encoded_length t = header_bytes + Ie.encoded_length t.ies

let set_u8 buf pos v = Bytes.set buf pos (Char.unsafe_chr (v land 0xFF))

let encode_at t ~headroom =
  if headroom < 0 then invalid_arg "Sigmsg.encode_at: negative headroom";
  let ie_len = Ie.encoded_length t.ies in
  let buf = Bytes.create (headroom + header_bytes + ie_len) in
  let cr = t.call_ref lor if t.from_originator then 0x800000 else 0 in
  set_u8 buf headroom protocol_discriminator;
  set_u8 buf (headroom + 1) 3;
  set_u8 buf (headroom + 2) (cr lsr 16);
  set_u8 buf (headroom + 3) (cr lsr 8);
  set_u8 buf (headroom + 4) cr;
  set_u8 buf (headroom + 5) (msg_type_code t.typ);
  set_u8 buf (headroom + 6) (ie_len lsr 8);
  set_u8 buf (headroom + 7) ie_len;
  ignore (Ie.encode_list t.ies buf (headroom + header_bytes));
  buf

let encode t = encode_at t ~headroom:0

let byte buf off i = Char.code (Bytes.get buf (off + i))

let decode_sub buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then Error (`Bad_length len)
  else if len < header_bytes then Error (`Too_short len)
  else if byte buf off 0 <> protocol_discriminator then
    Error (`Bad_discriminator (byte buf off 0))
  else if byte buf off 1 <> 3 then Error (`Bad_call_ref_length (byte buf off 1))
  else begin
    let cr = (byte buf off 2 lsl 16) lor (byte buf off 3 lsl 8) lor byte buf off 4 in
    match msg_type_of_code (byte buf off 5) with
    | None -> Error (`Unknown_type (byte buf off 5))
    | Some typ -> (
      let ie_len = (byte buf off 6 lsl 8) lor byte buf off 7 in
      if header_bytes + ie_len > len then Error (`Bad_length ie_len)
      else
        match Ie.decode_list buf (off + header_bytes) ie_len with
        | Error e -> Error (e :> error)
        | Ok ies ->
          Ok
            {
              call_ref = cr land 0x7FFFFF;
              from_originator = cr land 0x800000 <> 0;
              typ;
              ies;
            })
  end

let decode buf = decode_sub buf 0 (Bytes.length buf)
