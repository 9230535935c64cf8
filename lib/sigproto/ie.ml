type t = { id : int; data : string }

let id_called_party = 0x70

let id_calling_party = 0x6C

let id_qos = 0x5C

let id_vpcvci = 0x5A

let id_cause = 0x08

let id_aal_params = 0x58

let called_party addr = { id = id_called_party; data = addr }

let calling_party addr = { id = id_calling_party; data = addr }

let qos cls =
  if cls < 0 || cls > 255 then invalid_arg "Ie.qos: class out of range";
  { id = id_qos; data = String.make 1 (Char.chr cls) }

let vpc_vci ~vpi ~vci =
  if vpi < 0 || vpi > 0xFF then invalid_arg "Ie.vpc_vci: bad VPI";
  if vci < 0 || vci > 0xFFFF then invalid_arg "Ie.vpc_vci: bad VCI";
  let b = Bytes.create 3 in
  Bytes.set b 0 (Char.chr vpi);
  Bytes.set b 1 (Char.chr (vci lsr 8));
  Bytes.set b 2 (Char.chr (vci land 0xFF));
  { id = id_vpcvci; data = Bytes.unsafe_to_string b }

let cause c =
  if c < 0 || c > 255 then invalid_arg "Ie.cause: out of range";
  { id = id_cause; data = String.make 1 (Char.chr c) }

let find id ies = List.find_opt (fun ie -> ie.id = id) ies

let get_vpc_vci ie =
  if ie.id <> id_vpcvci || String.length ie.data <> 3 then None
  else
    Some
      ( Char.code ie.data.[0],
        (Char.code ie.data.[1] lsl 8) lor Char.code ie.data.[2] )

let get_u8 ie = if String.length ie.data = 1 then Some (Char.code ie.data.[0]) else None

type error = [ `Truncated | `Bad_length of int ]

let pp_error ppf = function
  | `Truncated -> Format.fprintf ppf "truncated information element"
  | `Bad_length n -> Format.fprintf ppf "bad element length %d" n

let rec encoded_length_from acc = function
  | [] -> acc
  | ie :: rest -> encoded_length_from (acc + 3 + String.length ie.data) rest

let encoded_length ies = encoded_length_from 0 ies

let rec encode_list ies buf off =
  match ies with
  | [] -> off
  | ie :: rest ->
    let len = String.length ie.data in
    Bytes.set buf off (Char.unsafe_chr (ie.id land 0xFF));
    Bytes.set buf (off + 1) (Char.unsafe_chr ((len lsr 8) land 0xFF));
    Bytes.set buf (off + 2) (Char.unsafe_chr (len land 0xFF));
    Bytes.blit_string ie.data 0 buf (off + 3) len;
    encode_list rest buf (off + 3 + len)

let dlen_at buf off =
  (Char.code (Bytes.get buf (off + 1)) lsl 8) lor Char.code (Bytes.get buf (off + 2))

(* Decoding takes two passes over the few bytes: [validate] checks the
   element framing, then [elements] builds the list front to back, so
   the result needs no reversal. *)
let rec validate buf off stop =
  if off = stop then Ok ()
  else if stop - off < 3 then Error `Truncated
  else begin
    let dlen = dlen_at buf off in
    if off + 3 + dlen > stop then Error (`Bad_length dlen)
    else validate buf (off + 3 + dlen) stop
  end

let[@tail_mod_cons] rec elements buf off stop =
  if off = stop then []
  else begin
    let dlen = dlen_at buf off in
    { id = Char.code (Bytes.get buf off); data = Bytes.sub_string buf (off + 3) dlen }
    :: elements buf (off + 3 + dlen) stop
  end

let decode_list buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then Error `Truncated
  else
    match validate buf off (off + len) with
    | Ok () -> Ok (elements buf off (off + len))
    | Error e -> Error e
