module Ipv4 = Ldlp_packet.Addr.Ipv4
module Tcp = Ldlp_packet.Tcp

type state = Listen | Syn_sent | Syn_received | Established | Close_wait | Closed

let state_name = function
  | Listen -> "listen"
  | Syn_sent -> "syn-sent"
  | Syn_received -> "syn-received"
  | Established -> "established"
  | Close_wait -> "close-wait"
  | Closed -> "closed"

type seg = {
  seg_seq : int32;
  seg_flags : int;
  seg_payload : bytes;
  mutable seg_sent_at : float;
  mutable seg_rexmits : int;
}

type t = {
  local_port : int;
  mutable remote : (Ipv4.t * int) option;
  mutable state : state;
  mutable irs : int32;
  mutable rcv_nxt : int32;
  mutable snd_nxt : int32;
  mutable snd_una : int32;
  mutable delayed_ack : int;
  sockbuf : Sockbuf.t;
  rto : Rto.t;
  mutable retx : seg list;  (* unacknowledged segments, oldest first *)
  mutable dupacks : int;
  mutable fast_retx_pending : bool;
  mutable rtx_armed : bool;
  mutable delack_armed : bool;
}

module Flowtable = Ldlp_flowtable.Flowtable

type key = int * int32 * int (* local port, remote ip, remote port *)

let key_equal ((port, ip, rport) : key) (port', ip', rport') =
  port = port' && Int32.equal ip ip' && rport = rport'

type stats = {
  lookups : int;
  cache_hits : int;
  table_hits : int;
  misses : int;
  allocated : int;
  freed : int;
}

type table = {
  conns : (key, t) Flowtable.t;
  listeners : (int, t) Hashtbl.t;
  (* The paper's single-entry PCB cache: the last connection looked up,
     under its key's scalar fields.  [cache] holds the option the flow
     table returned, so a hit returns it and a refill allocates nothing. *)
  mutable cache : t option;
  mutable cache_port : int;
  mutable cache_ip : int32;
  mutable cache_rport : int;
  mutable lookups : int;
  mutable cache_hits : int;
  mutable table_hits : int;
  mutable misses : int;
  mutable allocated : int;
  mutable freed : int;
}

let create_table () =
  {
    (* [buckets] matches the Hashtbl.create 64 this table replaced, so the
       exact backing store behaves identically; the modeled front cache
       rides behind the paper's one-entry cache. *)
    conns = Flowtable.create ~buckets:64 ~equal:key_equal ~name:"tcp-pcb" ();
    listeners = Hashtbl.create 8;
    cache = None;
    cache_port = 0;
    cache_ip = 0l;
    cache_rport = 0;
    lookups = 0;
    cache_hits = 0;
    table_hits = 0;
    misses = 0;
    allocated = 0;
    freed = 0;
  }

let fresh ~local_port ~state ?(hiwat = 16384) () =
  {
    local_port;
    remote = None;
    state;
    irs = 0l;
    rcv_nxt = 0l;
    snd_nxt = 1l;
    snd_una = 1l;
    delayed_ack = 0;
    sockbuf = Sockbuf.create ~hiwat ();
    rto = Rto.create ();
    retx = [];
    dupacks = 0;
    fast_retx_pending = false;
    rtx_armed = false;
    delack_armed = false;
  }

let listen table ~port ?hiwat () =
  if Hashtbl.mem table.listeners port then
    invalid_arg (Printf.sprintf "Pcb.listen: port %d already bound" port);
  let pcb = fresh ~local_port:port ~state:Listen ?hiwat () in
  Hashtbl.replace table.listeners port pcb;
  table.allocated <- table.allocated + 1;
  pcb

let key ~local_port ~remote:(rip, rport) = (local_port, Ipv4.to_int32 rip, rport)

let cached table ~local_port ~rip ~rport =
  table.cache_port = local_port
  && Int32.equal table.cache_ip (Ipv4.to_int32 rip)
  && table.cache_rport = rport

let set_cache table ~local_port ~rip ~rport found =
  table.cache <- found;
  table.cache_port <- local_port;
  table.cache_ip <- Ipv4.to_int32 rip;
  table.cache_rport <- rport

let find table ~local_port ~remote_ip:rip ~remote_port:rport =
  table.lookups <- table.lookups + 1;
  match table.cache with
  | Some _ as hit when cached table ~local_port ~rip ~rport ->
    table.cache_hits <- table.cache_hits + 1;
    hit
  | _ -> (
    match
      Flowtable.lookup table.conns (local_port, Ipv4.to_int32 rip, rport)
    with
    | Some _ as found ->
      set_cache table ~local_port ~rip ~rport found;
      table.table_hits <- table.table_hits + 1;
      found
    | None ->
      (* A listener match is still a connection-table miss: the segment
         took the slow path through demultiplexing. *)
      table.misses <- table.misses + 1;
      Hashtbl.find_opt table.listeners local_port)

let lookup table ~local_port ~remote:(remote_ip, remote_port) =
  find table ~local_port ~remote_ip ~remote_port

let insert table ~local_port ~remote pcb =
  let rip, rport = remote in
  pcb.remote <- Some remote;
  Flowtable.insert table.conns (key ~local_port ~remote) pcb;
  set_cache table ~local_port ~rip ~rport (Some pcb);
  table.allocated <- table.allocated + 1

let insert_connection table ~listener ~remote =
  let pcb =
    fresh ~local_port:listener.local_port ~state:Syn_received
      ~hiwat:(Sockbuf.hiwat listener.sockbuf) ()
  in
  insert table ~local_port:listener.local_port ~remote pcb;
  pcb

let insert_active table ~local_port ~remote ?(hiwat = 16384) () =
  if Flowtable.mem table.conns (key ~local_port ~remote) then
    invalid_arg "Pcb.insert_active: connection exists";
  let pcb = fresh ~local_port ~state:Syn_sent ~hiwat () in
  insert table ~local_port ~remote pcb;
  pcb

let drop table pcb =
  match pcb.remote with
  | None -> ()
  | Some ((rip, rport) as remote) ->
    let local_port = pcb.local_port in
    Flowtable.remove table.conns (key ~local_port ~remote);
    (match table.cache with
    | Some _ when cached table ~local_port ~rip ~rport -> table.cache <- None
    | _ -> ());
    pcb.state <- Closed;
    table.freed <- table.freed + 1

let connections table = Flowtable.length table.conns

let stats table : stats =
  {
    lookups = table.lookups;
    cache_hits = table.cache_hits;
    table_hits = table.table_hits;
    misses = table.misses;
    allocated = table.allocated;
    freed = table.freed;
  }

let flowtable table = table.conns

let metrics_scalars m table =
  let module Metrics = Ldlp_obs.Metrics in
  let set n v = Metrics.scalar m ("flow." ^ n) := v in
  set "lookups" table.lookups;
  set "cache_hits" table.cache_hits;
  set "table_hits" table.table_hits;
  set "misses" table.misses;
  set "allocated" table.allocated;
  set "freed" table.freed;
  Flowtable.metrics_scalars ~prefix:"flow.table" m table.conns

(* ---------- retransmission bookkeeping ---------- *)

let seg_span s =
  Bytes.length s.seg_payload
  + (if s.seg_flags land Tcp.flag_syn <> 0 then 1 else 0)
  + if s.seg_flags land Tcp.flag_fin <> 0 then 1 else 0

let track pcb ~now ~seq ~flags payload =
  if not (List.exists (fun s -> Int32.equal s.seg_seq seq) pcb.retx) then
    pcb.retx <-
      pcb.retx
      @ [
          {
            seg_seq = seq;
            seg_flags = flags;
            seg_payload = payload;
            seg_sent_at = now;
            seg_rexmits = 0;
          };
        ]

let unacked pcb = List.length pcb.retx

let oldest_unacked pcb = match pcb.retx with [] -> None | s :: _ -> Some s

type ack_class = Ack_new of float option | Ack_duplicate | Ack_old

let on_ack pcb ~now ack =
  if Tcp.seq_lt pcb.snd_una ack && Tcp.seq_leq ack pcb.snd_nxt then begin
    let acked, rest =
      List.partition
        (fun s -> Tcp.seq_leq (Tcp.seq_add s.seg_seq (seg_span s)) ack)
        pcb.retx
    in
    pcb.retx <- rest;
    pcb.snd_una <- ack;
    pcb.dupacks <- 0;
    Rto.reset_backoff pcb.rto;
    (* Karn's rule: only a segment transmitted exactly once yields an RTT
       sample (take the newest fully covered one). *)
    let sample =
      List.fold_left
        (fun acc s -> if s.seg_rexmits = 0 then Some (now -. s.seg_sent_at) else acc)
        None acked
    in
    Ack_new sample
  end
  else if Int32.equal ack pcb.snd_una then Ack_duplicate
  else Ack_old
