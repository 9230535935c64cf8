module Tcp = Ldlp_packet.Tcp
module Mbuf = Ldlp_buf.Mbuf

(* The payload is copied into the chain first, then the header is
   prepended into the head mbuf's leading space and written in place with
   the cursor writer; the checksum is summed over the chain. *)
let segment pool ~src ~dst ~src_port ~dst_port ~seq ~ack ~flags ~window
    ?(payload = Bytes.empty) () =
  let m = Mbuf.get pool in
  Mbuf.append_bytes pool m payload;
  let m = Mbuf.prepend m Tcp.header_bytes in
  Tcp.write ~src_port ~dst_port ~seq ~ack ~data_offset:5 ~flags
    ~window:(Int.min window 0xFFFF) ~urgent:0 (Mbuf.seg_data m)
    (Mbuf.seg_off m);
  Tcp.store_chain_checksum ~src ~dst m;
  m
