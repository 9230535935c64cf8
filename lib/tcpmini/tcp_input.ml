module Tcp = Ldlp_packet.Tcp
module Mbuf = Ldlp_buf.Mbuf

type reply = {
  dst : Ldlp_packet.Addr.Ipv4.t;
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : int;
  window : int;
}

type drop_reason = [ `Bad_checksum | `Parse_failed | `No_pcb | `Bad_state ]

type outcome = {
  pcb : Pcb.t option;
  delivered : int;
  replies : reply list;
  fastpath : bool;
  dropped : drop_reason option;
}

type stats = { fastpath_hits : int; slowpath : int; acks_sent : int; drops : int }

type counters = {
  mutable c_fast : int;
  mutable c_slow : int;
  mutable c_acks : int;
  mutable c_drops : int;
}

(* Per-domain counters (Domain.DLS): a sharded data path runs one host
   group per domain, and a shared record here would be both racy and
   misleading (counts smeared across shards).  Each domain sees exactly
   its own stack's counts; [stats]/[reset_stats] act on the calling
   domain. *)
let counters_key =
  Domain.DLS.new_key (fun () ->
      { c_fast = 0; c_slow = 0; c_acks = 0; c_drops = 0 })

let counters () = Domain.DLS.get counters_key

let stats () =
  let c = counters () in
  {
    fastpath_hits = c.c_fast;
    slowpath = c.c_slow;
    acks_sent = c.c_acks;
    drops = c.c_drops;
  }

let reset_stats () =
  let c = counters () in
  c.c_fast <- 0;
  c.c_slow <- 0;
  c.c_acks <- 0;
  c.c_drops <- 0

let count_slowpath () =
  let c = counters () in
  c.c_slow <- c.c_slow + 1

let initial_send_seq = 1000l

let drop ?pcb reason =
  (let c = counters () in
   c.c_drops <- c.c_drops + 1);
  { pcb; delivered = 0; replies = []; fastpath = false; dropped = Some reason }

(* The input path reads segment fields in place off the pulled-up mbuf
   (no intermediate [Tcp.header] record), so the state machine below
   takes the fields it actually uses as scalars: [seg_src_port], [seq],
   [ack] and [flags] of the arriving segment. *)

let reply_of ~src_ip ~seg_src_port (pcb : Pcb.t) ~flags =
  (let c = counters () in
   c.c_acks <- c.c_acks + 1);
  {
    dst = src_ip;
    src_port = pcb.Pcb.local_port;
    dst_port = seg_src_port;
    seq = pcb.Pcb.snd_nxt;
    ack = pcb.Pcb.rcv_nxt;
    flags;
    window = Sockbuf.space pcb.Pcb.sockbuf;
  }

(* RST in answer to a segment for which no connection exists (RFC 793's
   reset generation for the CLOSED state). *)
let rst_for ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port ~payload_len =
  if seg_flags land Tcp.flag_rst <> 0 then []
  else if seg_flags land Tcp.flag_ack <> 0 then
    [
      {
        dst = src_ip;
        src_port = dst_port;
        dst_port = seg_src_port;
        seq = ack;
        ack = 0l;
        flags = Tcp.flag_rst;
        window = 0;
      };
    ]
  else
    [
      {
        dst = src_ip;
        src_port = dst_port;
        dst_port = seg_src_port;
        seq = 0l;
        ack =
          Tcp.seq_add seq
            (payload_len + if seg_flags land Tcp.flag_syn <> 0 then 1 else 0);
        flags = Tcp.flag_rst lor Tcp.flag_ack;
        window = 0;
      };
    ]

(* Run an incoming ACK value through the retransmission queue.  A pure
   ACK for [snd_una] while data is outstanding is a dup-ACK; the third in
   a row requests a fast retransmit (flagged on the PCB — the host's
   recovery driver, when timers are attached, emits the segment). *)
let process_ack pcb ~now ~ack ~seg_flags ~len =
  if seg_flags land Tcp.flag_ack <> 0 then
    match Pcb.on_ack pcb ~now ack with
    | Pcb.Ack_new sample -> Option.iter (Rto.observe pcb.Pcb.rto) sample
    | Pcb.Ack_duplicate
      when len = 0 && pcb.Pcb.retx <> []
           && seg_flags land (Tcp.flag_syn lor Tcp.flag_fin) = 0 ->
      pcb.Pcb.dupacks <- pcb.Pcb.dupacks + 1;
      if pcb.Pcb.dupacks = 3 then pcb.Pcb.fast_retx_pending <- true
    | Pcb.Ack_duplicate | Pcb.Ack_old -> ()

(* [found] is the [Some pcb] the lookup returned, reused as the outcome's
   [pcb] field; [m] holds the segment's [len] payload bytes. *)
let established_input table ~src_ip ~now ~found pcb ~seg_src_port ~seq ~ack
    ~seg_flags m ~len =
  if seg_flags land Tcp.flag_rst <> 0 then begin
    Pcb.drop table pcb;
    { pcb = found; delivered = 0; replies = []; fastpath = false; dropped = None }
  end
  else if
    (* Header prediction (the 4.4BSD fast path the paper's trace hits):
       established state, nothing but ACK/PSH set, exactly the expected
       sequence number, data present, room in the buffer. *)
    pcb.Pcb.state = Pcb.Established
    && seg_flags land lnot (Tcp.flag_ack lor Tcp.flag_psh) = 0
    && Int32.equal seq pcb.Pcb.rcv_nxt
    && len > 0
    && Sockbuf.space pcb.Pcb.sockbuf >= len
  then begin
    (let c = counters () in
     c.c_fast <- c.c_fast + 1);
    process_ack pcb ~now ~ack ~seg_flags ~len;
    let accepted = Sockbuf.append pcb.Pcb.sockbuf m in
    pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt accepted;
    pcb.Pcb.delayed_ack <- pcb.Pcb.delayed_ack + 1;
    let replies =
      if pcb.Pcb.delayed_ack >= 2 then begin
        pcb.Pcb.delayed_ack <- 0;
        [ reply_of ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack ]
      end
      else []
    in
    { pcb = found; delivered = accepted; replies; fastpath = true; dropped = None }
  end
  else begin
    count_slowpath ();
    process_ack pcb ~now ~ack ~seg_flags ~len;
    (* Slow path: in-order FIN, out-of-order data, window probes... *)
    let in_order = Int32.equal seq pcb.Pcb.rcv_nxt in
    let delivered =
      if in_order && len > 0 && pcb.Pcb.state = Pcb.Established then begin
        let accepted = Sockbuf.append pcb.Pcb.sockbuf m in
        pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt accepted;
        accepted
      end
      else 0
    in
    let fin_processed =
      in_order
      && seg_flags land Tcp.flag_fin <> 0
      && pcb.Pcb.state = Pcb.Established
      && delivered = len
    in
    if fin_processed then begin
      pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt 1;
      pcb.Pcb.state <- Pcb.Close_wait
    end;
    (* The slow path acknowledges immediately — duplicate and out-of-order
       segments trigger the classic dup-ACK — but only segments that
       occupy sequence space.  A pure ACK must never be ACKed back, or two
       hosts volley acknowledgments forever. *)
    let occupies =
      len > 0
      || seg_flags land Tcp.flag_syn <> 0
      || seg_flags land Tcp.flag_fin <> 0
    in
    let replies =
      if occupies then begin
        pcb.Pcb.delayed_ack <- 0;
        [ reply_of ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack ]
      end
      else []
    in
    { pcb = found; delivered; replies; fastpath = false; dropped = None }
  end

(* Demultiplex and run the state machine for a validated segment whose
   header is already stripped: [m] holds exactly its [len] payload bytes.
   The caller frees [m]. *)
let input table ~src_ip ~now ~seg_src_port ~dst_port ~seq ~ack ~seg_flags m
    ~len =
  match
    Pcb.find table ~local_port:dst_port ~remote_ip:src_ip
      ~remote_port:seg_src_port
  with
  | None ->
    let o = drop `No_pcb in
    {
      o with
      replies =
        rst_for ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port
          ~payload_len:len;
    }
  | Some pcb as found -> (
    match pcb.Pcb.state with
    | Pcb.Listen ->
      if seg_flags land Tcp.flag_syn <> 0 && seg_flags land Tcp.flag_ack = 0
      then begin
        count_slowpath ();
        let conn =
          Pcb.insert_connection table ~listener:pcb
            ~remote:(src_ip, seg_src_port)
        in
        conn.Pcb.irs <- seq;
        conn.Pcb.rcv_nxt <- Tcp.seq_add seq 1;
        conn.Pcb.snd_nxt <- initial_send_seq;
        conn.Pcb.snd_una <- initial_send_seq;
        let reply =
          reply_of ~src_ip ~seg_src_port conn
            ~flags:(Tcp.flag_syn lor Tcp.flag_ack)
        in
        conn.Pcb.snd_nxt <- Tcp.seq_add conn.Pcb.snd_nxt 1;
        {
          pcb = Some conn;
          delivered = 0;
          replies = [ reply ];
          fastpath = false;
          dropped = None;
        }
      end
      else begin
        let o = drop ~pcb `Bad_state in
        {
          o with
          replies =
            rst_for ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port
              ~payload_len:len;
        }
      end
    | Pcb.Syn_received ->
      count_slowpath ();
      if seg_flags land Tcp.flag_rst <> 0 then begin
        Pcb.drop table pcb;
        { pcb = found; delivered = 0; replies = []; fastpath = false; dropped = None }
      end
      else if
        seg_flags land Tcp.flag_ack <> 0 && Int32.equal ack pcb.Pcb.snd_nxt
      then begin
        process_ack pcb ~now ~ack ~seg_flags ~len;
        pcb.Pcb.state <- Pcb.Established;
        (* The handshake ACK may carry data; reprocess it through the
           established path. *)
        if len > 0 then
          established_input table ~src_ip ~now ~found pcb ~seg_src_port ~seq
            ~ack ~seg_flags m ~len
        else
          { pcb = found; delivered = 0; replies = []; fastpath = false; dropped = None }
      end
      else if
        seg_flags land Tcp.flag_syn <> 0
        && seg_flags land Tcp.flag_ack = 0
        && Int32.equal seq pcb.Pcb.irs
      then begin
        (* Retransmitted SYN: our SYN-ACK was lost; repeat it with the
           original sequence number (snd_nxt already consumed it). *)
        let r =
          reply_of ~src_ip ~seg_src_port pcb
            ~flags:(Tcp.flag_syn lor Tcp.flag_ack)
        in
        {
          pcb = found;
          delivered = 0;
          replies = [ { r with seq = Tcp.seq_add pcb.Pcb.snd_nxt (-1) } ];
          fastpath = false;
          dropped = None;
        }
      end
      else drop ~pcb `Bad_state
    | Pcb.Syn_sent ->
      count_slowpath ();
      if seg_flags land Tcp.flag_rst <> 0 then begin
        Pcb.drop table pcb;
        { pcb = found; delivered = 0; replies = []; fastpath = false; dropped = None }
      end
      else if
        seg_flags land Tcp.flag_syn <> 0
        && seg_flags land Tcp.flag_ack <> 0
        && Int32.equal ack pcb.Pcb.snd_nxt
      then begin
        (* Active open completes: record the server's ISN and ack it. *)
        process_ack pcb ~now ~ack ~seg_flags ~len:0;
        pcb.Pcb.irs <- seq;
        pcb.Pcb.rcv_nxt <- Tcp.seq_add seq 1;
        pcb.Pcb.state <- Pcb.Established;
        {
          pcb = found;
          delivered = 0;
          replies = [ reply_of ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack ];
          fastpath = false;
          dropped = None;
        }
      end
      else drop ~pcb `Bad_state
    | Pcb.Established | Pcb.Close_wait ->
      established_input table ~src_ip ~now ~found pcb ~seg_src_port ~seq ~ack
        ~seg_flags m ~len
    | Pcb.Closed -> drop ~pcb `Bad_state)

let segment_arrived table ~my_ip ~src_ip ~pool ~now m =
  if not (Tcp.verify_checksum ~src:src_ip ~dst:my_ip m) then begin
    Mbuf.free pool m;
    drop `Bad_checksum
  end
  else begin
    let total = Mbuf.length m in
    let m = Mbuf.pullup pool m (Int.min total Tcp.header_bytes) in
    (* A header carrying options is pulled up whole (at most 60 bytes) so
       the fields and the option bytes can be read in place. *)
    let m =
      if total > Tcp.header_bytes then
        let hdr_len =
          4 * Tcp.data_offset_at (Mbuf.seg_data m) (Mbuf.seg_off m)
        in
        if hdr_len > Tcp.header_bytes && hdr_len <= total then
          Mbuf.pullup pool m hdr_len
        else m
      else m
    in
    let buf = Mbuf.seg_data m and boff = Mbuf.seg_off m in
    (* Same validation [Tcp.parse] performs, against the pulled-up bytes
       in place and the whole segment's length. *)
    match Tcp.check_at buf boff total with
    | Error _ ->
      Mbuf.free pool m;
      drop `Parse_failed
    | Ok () ->
      let hdr_len = 4 * Tcp.data_offset_at buf boff in
      let seg_src_port = Tcp.src_port_at buf boff in
      let dst_port = Tcp.dst_port_at buf boff in
      let seq = Tcp.seq_at buf boff in
      let ack = Tcp.ack_at buf boff in
      let seg_flags = Tcp.flags_at buf boff in
      (* Skip the header and any options: [m] now holds only the payload,
         which the socket buffer copies out directly. *)
      Mbuf.adj m hdr_len;
      let o =
        input table ~src_ip ~now ~seg_src_port ~dst_port ~seq ~ack ~seg_flags
          m ~len:(total - hdr_len)
      in
      Mbuf.free pool m;
      o
  end
