module Pkt = Ldlp_packet
module Mbuf = Ldlp_buf.Mbuf
module Core = Ldlp_core

type item = {
  mutable buf : Mbuf.t;
  mutable src_ip : Pkt.Addr.Ipv4.t;
  mutable src_port : int;
}

type counters = {
  frames_in : int;
  not_for_us : int;
  bad_udp : int;
  replies : int;
  dup_queries : int;
}

type t = {
  pool : Ldlp_buf.Pool.t;
  mac : Pkt.Addr.Mac.t;
  my_ip : Pkt.Addr.Ipv4.t;
  port : int;
  srv : Server.t;
  txns : (int32 * int * int, unit) Ldlp_flowtable.Flowtable.t;
      (* completed transactions keyed (client ip, client port, dns id):
         a repeat of an answered query is a client retransmission *)
  mutable c : counters;
  mutable ident : int;
}

let txn_equal (ip, (port : int), (id : int)) (ip', port', id') =
  Int32.equal ip ip' && port = port' && id = id'

let create ~pool ~mac ~ip ?(port = 53) ~server () =
  {
    pool;
    mac;
    my_ip = ip;
    port;
    srv = server;
    txns =
      Ldlp_flowtable.Flowtable.create ~equal:txn_equal ~name:"dns-txn" ();
    c =
      {
        frames_in = 0;
        not_for_us = 0;
        bad_udp = 0;
        replies = 0;
        dup_queries = 0;
      };
    ident = 0;
  }

let wrap t m = { buf = m; src_ip = t.my_ip; src_port = 0 }

let counters t = t.c

let server t = t.srv

let transactions t = t.txns

(* The wire id is the first header field; peeking it avoids a second full
   decode on the hot path. *)
let wire_id wire = if Bytes.length wire >= 2 then Bytes.get_uint16_be wire 0 else 0

let udp_ip_ether t ~src_ip ~src_port ~dst_ip ~dst_port payload =
  let dgram = Bytes.create (Pkt.Udp.header_bytes + Bytes.length payload) in
  Bytes.blit payload 0 dgram Pkt.Udp.header_bytes (Bytes.length payload);
  Pkt.Udp.build
    { Pkt.Udp.src_port; dst_port; length = 0 }
    ~src:src_ip ~dst:dst_ip dgram 0
    ~payload_len:(Bytes.length payload);
  let m = Mbuf.of_bytes t.pool dgram in
  t.ident <- (t.ident + 1) land 0xFFFF;
  let m =
    Pkt.Ipv4.encapsulate m
      {
        Pkt.Ipv4.ihl = 5;
        tos = 0;
        total_length = 0;
        ident = t.ident;
        dont_fragment = true;
        more_fragments = false;
        fragment_offset = 0;
        ttl = 64;
        protocol = Pkt.Ipv4.proto_udp;
        src = src_ip;
        dst = dst_ip;
      }
  in
  Pkt.Ethernet.encapsulate m
    {
      Pkt.Ethernet.dst = Pkt.Addr.Mac.broadcast;
      src = t.mac;
      ethertype = Pkt.Ethernet.ethertype_ipv4;
    }

let layers t =
  let drop counter msg =
    (match counter with
    | `Not_for_us -> t.c <- { t.c with not_for_us = t.c.not_for_us + 1 }
    | `Bad_udp -> t.c <- { t.c with bad_udp = t.c.bad_udp + 1 });
    Mbuf.free t.pool msg;
    [ Core.Layer.Consume ]
  in
  let ether =
    Core.Layer.v ~name:"ether"
      ~fp:(Core.Layer.footprint ~code_bytes:4480 ())
      (fun msg ->
        t.c <- { t.c with frames_in = t.c.frames_in + 1 };
        let m = msg.Core.Msg.payload.buf in
        match Pkt.Ethernet.strip m with
        | Ok h when h.Pkt.Ethernet.ethertype = Pkt.Ethernet.ethertype_ipv4 ->
          [ Core.Layer.Deliver_up msg ]
        | Ok _ | Error _ -> drop `Not_for_us m)
  in
  let ip_layer =
    Core.Layer.v ~name:"ip"
      ~fp:(Core.Layer.footprint ~code_bytes:2784 ())
      (fun msg ->
        let m = msg.Core.Msg.payload.buf in
        match Pkt.Ipv4.strip m with
        | Ok h
          when h.Pkt.Ipv4.protocol = Pkt.Ipv4.proto_udp
               && (not (Pkt.Ipv4.is_fragment h))
               && Pkt.Addr.Ipv4.equal h.Pkt.Ipv4.dst t.my_ip ->
          msg.Core.Msg.payload.src_ip <- h.Pkt.Ipv4.src;
          [ Core.Layer.Deliver_up msg ]
        | Ok _ | Error _ -> drop `Not_for_us m)
  in
  let udp_layer =
    Core.Layer.v ~name:"udp"
      ~fp:(Core.Layer.footprint ~code_bytes:1500 ())
      (fun msg ->
        let m = msg.Core.Msg.payload.buf in
        let flat = Mbuf.to_bytes m in
        match Pkt.Udp.parse flat 0 (Bytes.length flat) with
        | Ok (h, _)
          when h.Pkt.Udp.dst_port = t.port
               && Pkt.Udp.verify_checksum
                    ~src:msg.Core.Msg.payload.src_ip ~dst:t.my_ip flat 0
                    h.Pkt.Udp.length ->
          msg.Core.Msg.payload.src_port <- h.Pkt.Udp.src_port;
          Mbuf.adj m Pkt.Udp.header_bytes;
          (* Trim any payload beyond the UDP length. *)
          let extra = Mbuf.length m - (h.Pkt.Udp.length - Pkt.Udp.header_bytes) in
          if extra > 0 then Mbuf.adj m (-extra);
          [ Core.Layer.Deliver_up msg ]
        | Ok (h, _) when h.Pkt.Udp.dst_port <> t.port -> drop `Not_for_us m
        | Ok _ | Error _ -> drop `Bad_udp m)
  in
  let dns =
    Core.Layer.v ~name:"dns"
      ~fp:(Core.Layer.footprint ~code_bytes:3000 ~data_bytes:2048 ())
      (fun msg ->
        let m = msg.Core.Msg.payload.buf in
        let wire = Mbuf.to_bytes m in
        Mbuf.free t.pool m;
        let txn_key =
          ( Pkt.Addr.Ipv4.to_int32 msg.Core.Msg.payload.src_ip,
            msg.Core.Msg.payload.src_port,
            wire_id wire )
        in
        (match Ldlp_flowtable.Flowtable.lookup t.txns txn_key with
        | Some () -> t.c <- { t.c with dup_queries = t.c.dup_queries + 1 }
        | None -> ());
        match Server.handle t.srv wire with
        | None -> [ Core.Layer.Consume ]
        | Some reply_bytes ->
          t.c <- { t.c with replies = t.c.replies + 1 };
          Ldlp_flowtable.Flowtable.insert t.txns txn_key ();
          let frame =
            udp_ip_ether t ~src_ip:t.my_ip ~src_port:t.port
              ~dst_ip:msg.Core.Msg.payload.src_ip
              ~dst_port:msg.Core.Msg.payload.src_port reply_bytes
          in
          [
            Core.Layer.Consume;
            Core.Layer.Send_down
              (Core.Msg.with_payload msg
                 {
                   buf = frame;
                   src_ip = t.my_ip;
                   src_port = t.port;
                 }
                 ~size:(Mbuf.length frame));
          ])
  in
  [ ether; ip_layer; udp_layer; dns ]

let client_query t ~src_ip ~src_port query =
  udp_ip_ether t ~src_ip ~src_port ~dst_ip:t.my_ip ~dst_port:t.port
    (Dnsmsg.encode query)

let parse_tx t item =
  let m = item.buf in
  let result =
    match Pkt.Ethernet.strip m with
    | Error _ -> None
    | Ok _ -> (
      match Pkt.Ipv4.strip m with
      | Error _ -> None
      | Ok _ -> (
        let flat = Mbuf.to_bytes m in
        match Pkt.Udp.parse flat 0 (Bytes.length flat) with
        | Error _ -> None
        | Ok (h, off) -> (
          let payload = Bytes.sub flat off (h.Pkt.Udp.length - off) in
          match Dnsmsg.decode payload with
          | Ok msg -> Some (msg, h.Pkt.Udp.dst_port)
          | Error _ -> None)))
  in
  Mbuf.free t.pool m;
  result
