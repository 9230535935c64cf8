(** Information elements: the TLV-encoded parameters carried by Q.93B-style
    signalling messages (called/calling party, QoS class, VPI/VCI, cause). *)

type t = { id : int; data : string }

(** Well-known element identifiers (values follow Q.931/Q.93B flavour but
    are local to this implementation). *)

val id_called_party : int

val id_calling_party : int

val id_qos : int

val id_vpcvci : int

val id_cause : int

val id_aal_params : int

val called_party : string -> t
(** Address as an opaque string (e.g. ["switch-b:12"]). *)

val calling_party : string -> t

val qos : int -> t
(** QoS class 0-255. *)

val vpc_vci : vpi:int -> vci:int -> t
(** 8-bit VPI, 16-bit VCI. *)

val cause : int -> t

val find : int -> t list -> t option

val get_vpc_vci : t -> (int * int) option
(** Decode a {!vpc_vci} element's payload. *)

val get_u8 : t -> int option

type error = [ `Truncated | `Bad_length of int ]

val pp_error : Format.formatter -> error -> unit

val encoded_length : t list -> int

val encode_list : t list -> bytes -> int -> int
(** [encode_list ies buf off] writes the elements, returns the offset past
    them.  Layout per element: id byte, 2-byte big-endian length, data. *)

val decode_list : bytes -> int -> int -> (t list, error) result
(** [decode_list buf off len] parses elements from exactly [len] bytes.
    Never raises: a slice outside [buf] is [Error `Truncated]. *)
