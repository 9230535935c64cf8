type stats = {
  queries : int;
  answered : int;
  nxdomain : int;
  refused : int;
  malformed : int;
}

module Flowtable = Ldlp_flowtable.Flowtable

type t = {
  zone : (string, Ldlp_packet.Addr.Ipv4.t list) Flowtable.t;
  mutable s : stats;
}

let canonical name = String.lowercase_ascii (Name.to_string name)

let add_record t ~name ~addr =
  let key = String.lowercase_ascii name in
  let ip = Ldlp_packet.Addr.Ipv4.of_string addr in
  let existing = Option.value ~default:[] (Flowtable.lookup t.zone key) in
  Flowtable.insert t.zone key (existing @ [ ip ])

let create ~zone () =
  let t =
    {
      (* [buckets] matches the Hashtbl.create 64 this zone map replaced. *)
      zone =
        Flowtable.create ~buckets:64 ~equal:String.equal ~name:"dns-zone" ();
      s = { queries = 0; answered = 0; nxdomain = 0; refused = 0; malformed = 0 };
    }
  in
  List.iter (fun (name, addr) -> add_record t ~name ~addr) zone;
  t

let lookup t name =
  Option.value ~default:[] (Flowtable.lookup t.zone (canonical name))

let handle t wire =
  match Dnsmsg.decode wire with
  | Error _ ->
    t.s <- { t.s with malformed = t.s.malformed + 1 };
    None
  | Ok q when q.Dnsmsg.response ->
    t.s <- { t.s with refused = t.s.refused + 1 };
    None
  | Ok q -> (
    t.s <- { t.s with queries = t.s.queries + 1 };
    match q.Dnsmsg.questions with
    | [ question ]
      when question.Dnsmsg.qtype = Dnsmsg.qtype_a
           && question.Dnsmsg.qclass = Dnsmsg.qclass_in -> (
      match lookup t question.Dnsmsg.qname with
      | [] ->
        t.s <- { t.s with nxdomain = t.s.nxdomain + 1 };
        Some (Dnsmsg.encode (Dnsmsg.response ~rcode:Dnsmsg.Nxdomain q))
      | addrs ->
        t.s <- { t.s with answered = t.s.answered + 1 };
        let answers =
          List.map
            (fun addr ->
              { Dnsmsg.name = question.Dnsmsg.qname; ttl = 300l; addr })
            addrs
        in
        Some (Dnsmsg.encode (Dnsmsg.response ~answers ~rcode:Dnsmsg.No_error q)))
    | _ ->
      t.s <- { t.s with refused = t.s.refused + 1 };
      Some (Dnsmsg.encode (Dnsmsg.response ~rcode:Dnsmsg.Not_implemented q)))

let stats t = t.s
