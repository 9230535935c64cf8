module Core = Ldlp_core
module Mbuf = Ldlp_buf.Mbuf

type body =
  | Raw of Mbuf.t
  | Sdu of int * bytes
  | Signalling of int * bytes
  | Decoded of int * Sigmsg.t

type item = body

let frame ~pool ~port payload =
  if port < 0 || port > 0xFF then invalid_arg "Layers.frame: bad port";
  let b = Bytes.create (1 + Bytes.length payload) in
  Bytes.set b 0 (Char.chr port);
  Bytes.blit payload 0 b 1 (Bytes.length payload);
  Mbuf.of_bytes pool b

(* Encode once, straight into the transmit frame: the Q.93B message is
   written after SSCOP's header room and SSCOP stamps its header in
   place. *)
let transmit sscop msg =
  let f = Sigmsg.encode_at msg ~headroom:Sscop.header_bytes in
  Sscop.send_frame sscop f;
  f

let encode_tx ~sscop_for ~port msg = (port, transmit (sscop_for port) msg)

type stack = {
  layers : item Core.Layer.t list;
  sscop_for : int -> Sscop.t;
  switch : Switch.t;
}

(* Footprints: rough code sizes of each layer's OCaml implementation, for
   the blocking analysis.  What matters is that together they exceed a
   small primary I-cache, as signalling stacks do. *)
let fp_link = Core.Layer.footprint ~code_bytes:1500 ~data_bytes:128 ()

let fp_sscop = Core.Layer.footprint ~code_bytes:4000 ~data_bytes:512 ()

let fp_q93b = Core.Layer.footprint ~code_bytes:5000 ~data_bytes:256 ()

let fp_call = Core.Layer.footprint ~code_bytes:9000 ~data_bytes:2048 ()

(* A new message toward the network, carrying the received message's
   arrival time and flow. *)
let down msg port frame =
  Core.Layer.Send_down
    (Core.Msg.with_payload msg (Sdu (port, frame)) ~size:(Bytes.length frame))

(* The call layer's replies, transmitted in order. *)
let rec send_replies sscop_for msg = function
  | [] -> []
  | (port, reply) :: rest ->
    let d = down msg port (transmit (sscop_for port) reply) in
    d :: send_replies sscop_for msg rest

(* Each layer rewrites [msg.payload] and [msg.size] in place and answers
   [Layer.up_only]; only the SSCOP ack and the call layer's replies are
   new messages. *)
let stack ~pool ~switch ?(acks = true) () =
  (* One SSCOP per port, created on first use; a port is the link
     frame's one-byte tag. *)
  let sscops = Array.make 256 None in
  let sscop_for port =
    if port < 0 || port > 0xFF then invalid_arg "Layers: bad port";
    match sscops.(port) with
    | Some s -> s
    | None ->
      let s = Sscop.create () in
      sscops.(port) <- Some s;
      s
  in
  let link =
    Core.Layer.v ~name:"link" ~fp:fp_link (fun msg ->
        match msg.Core.Msg.payload with
        | Raw m when Mbuf.length m >= 1 ->
          let port = Mbuf.get_byte m 0 in
          Mbuf.adj m 1;
          let sdu = Mbuf.to_bytes m in
          Mbuf.free pool m;
          msg.Core.Msg.payload <- Sdu (port, sdu);
          msg.Core.Msg.size <- Bytes.length sdu;
          Core.Layer.up_only
        | Raw m ->
          Mbuf.free pool m;
          Core.Layer.consume_only
        | Sdu _ | Signalling _ | Decoded _ -> Core.Layer.up_only)
  in
  let sscop_layer =
    Core.Layer.v ~name:"sscop" ~fp:fp_sscop (fun msg ->
        match msg.Core.Msg.payload with
        | Sdu (port, f) -> (
          let s = sscop_for port in
          match Sscop.receive s f with
          | Sscop.Data ->
            msg.Core.Msg.payload <- Signalling (port, f);
            msg.Core.Msg.size <- Bytes.length f - Sscop.header_bytes;
            if acks then [ Core.Layer.Up; down msg port (Sscop.make_ack s) ]
            else Core.Layer.up_only
          | Sscop.Stale | Sscop.Acked | Sscop.Bad -> Core.Layer.consume_only)
        | Raw _ | Signalling _ | Decoded _ -> Core.Layer.up_only)
  in
  let q93b =
    Core.Layer.v ~name:"q93b" ~fp:fp_q93b (fun msg ->
        match msg.Core.Msg.payload with
        | Signalling (port, f) -> (
          match
            Sigmsg.decode_sub f Sscop.header_bytes
              (Bytes.length f - Sscop.header_bytes)
          with
          | Ok m ->
            msg.Core.Msg.payload <- Decoded (port, m);
            msg.Core.Msg.size <- Sigmsg.encoded_length m;
            Core.Layer.up_only
          | Error _ -> Core.Layer.consume_only)
        | Raw _ | Sdu _ | Decoded _ -> Core.Layer.up_only)
  in
  let call =
    Core.Layer.v ~name:"call" ~fp:fp_call (fun msg ->
        match msg.Core.Msg.payload with
        | Decoded (port, m) -> (
          match Switch.handle switch ~port m with
          | [] -> Core.Layer.up_only
          | replies -> Core.Layer.Up :: send_replies sscop_for msg replies)
        | Raw _ | Sdu _ | Signalling _ -> Core.Layer.consume_only)
  in
  { layers = [ link; sscop_layer; q93b; call ]; sscop_for; switch }
