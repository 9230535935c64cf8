(* Reference LRU model: one list per set, MRU first.  Everything is a
   linear scan over a list — no packed arrays, no in-place rotation, no
   special direct-mapped fast path — so the replacement policy is visibly
   the textbook one. *)

type t = {
  cfg : Ldlp_cache.Config.t;
  sets : int;
  ways : int;
  state : int list array;  (* state.(set): resident lines, MRU first *)
  mutable hits : int;
  mutable misses : int;
}

let create cfg =
  let sets = Ldlp_cache.Config.sets cfg in
  {
    cfg;
    sets;
    ways = cfg.Ldlp_cache.Config.associativity;
    state = Array.make sets [];
    hits = 0;
    misses = 0;
  }

let set_of t line = line mod t.sets

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let access_line t line =
  let s = set_of t line in
  let ways = t.state.(s) in
  if List.mem line ways then begin
    t.hits <- t.hits + 1;
    t.state.(s) <- line :: List.filter (fun l -> l <> line) ways;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.state.(s) <- take t.ways (line :: ways);
    false
  end

let line_of_addr t addr = Ldlp_cache.Config.line_of_addr t.cfg addr

let access t addr = access_line t (line_of_addr t addr)

let touch_range t ~addr ~len =
  if len <= 0 then 0
  else begin
    let first = line_of_addr t addr in
    let last = line_of_addr t (addr + len - 1) in
    let misses = ref 0 in
    for line = first to last do
      if not (access_line t line) then incr misses
    done;
    !misses
  end

let resident t addr =
  let line = line_of_addr t addr in
  List.mem line t.state.(set_of t line)

let flush t = Array.fill t.state 0 t.sets []

let occupancy t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.state

let hits t = t.hits

let misses t = t.misses

let resident_lines t =
  Array.fold_left (fun acc l -> List.rev_append l acc) [] t.state
  |> List.sort compare

(* ---------- Differential driver ---------- *)

type op =
  | Access of int
  | Access_line of int
  | Touch_range of { addr : int; len : int }
  | Retouch
  | Probe of int
  | Flush

let pp_op ppf = function
  | Access a -> Format.fprintf ppf "access %#x" a
  | Access_line l -> Format.fprintf ppf "access_line %d" l
  | Touch_range { addr; len } ->
    Format.fprintf ppf "touch_range %#x+%d" addr len
  | Retouch -> Format.fprintf ppf "retouch"
  | Probe a -> Format.fprintf ppf "probe %#x" a
  | Flush -> Format.fprintf ppf "flush"

let random_ops ~rng ?(cold_span = 1 lsl 20) cfg n =
  let module R = Ldlp_sim.Rng in
  let module Config = Ldlp_cache.Config in
  let sets = Config.sets cfg and line_bytes = cfg.Config.line_bytes in
  (* A hot set of 3x the cache keeps reuse high enough that both hits and
     evictions happen. *)
  let hot = 3 * Config.lines cfg in
  let ops = ref [] and k = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr k
  in
  while !k < n do
    match R.int rng 100 with
    | r when r < 55 -> emit (Access_line (R.int rng hot))
    | r when r < 70 -> emit (Access_line (R.int rng cold_span))
    | r when r < 80 -> emit (Access (R.int rng (hot * 32)))
    | r when r < 90 ->
      let addr = R.int rng (hot * 32) in
      (* One range in eight is long: line-aligned, of [sets - 1], [sets]
         or [sets + 1] lines (the edge of the repeat memo) or longer still,
         where the memo must stay off. *)
      let addr, len =
        if R.int rng 8 > 0 then (addr, R.int rng 256)
        else
          let span = sets - 1 + R.int rng 3 in
          let span =
            if span > sets && R.bool rng 0.5 then span + R.int rng sets
            else span
          in
          (addr / line_bytes * line_bytes, max 1 span * line_bytes)
      in
      emit (Touch_range { addr; len });
      (* Repeats of the range: straight after it (the memo's hits), after
         a probe (which must keep the memo), or after what must clear it —
         accesses to other lines of one of its sets, enough of them to
         evict, or a flush. *)
      let first = addr / line_bytes in
      let nlines =
        if len <= 0 then 1 else ((addr + len - 1) / line_bytes) - first + 1
      in
      for _ = 1 to R.int rng 4 do
        (match R.int rng 8 with
        | 0 | 1 | 2 -> ()
        | 3 | 4 -> emit (Probe (R.int rng (hot * 32)))
        | 5 | 6 ->
          let line = first + R.int rng nlines in
          for alias = 1 to 1 + R.int rng cfg.Config.associativity do
            emit (Access_line (line + (alias * sets)))
          done
        | _ -> emit Flush);
        emit Retouch
      done
    | r when r < 98 -> emit (Probe (R.int rng (hot * 32)))
    | _ -> emit Flush
  done;
  List.filteri (fun i _ -> i < n) (List.rev !ops)

type divergence = { step : int; op : op; detail : string }

let pp_divergence ppf d =
  Format.fprintf ppf "step %d (%a): %s" d.step pp_op d.op d.detail

let subject_lines subject =
  let acc = ref [] in
  Ldlp_cache.Cache.iter_resident subject (fun l -> acc := l :: !acc);
  List.sort compare !acc

(* A unified memory system takes every reference as a [Memsys] access —
   a code fetch, data read or write, chosen by the step number — and its
   miss count is read off the counters. *)
let memsys_access m step ~addr ~len =
  let module M = Ldlp_cache.Memsys in
  let total () =
    let c = M.counters m in
    c.M.icache_misses + c.M.dcache_misses + c.M.write_misses
  in
  let before = total () in
  (match step mod 3 with
  | 0 -> M.fetch_code m ~addr ~len
  | 1 -> M.read_data m ~addr ~len
  | _ -> M.write_data m ~addr ~len);
  total () - before

(* The memory system's counters against the oracle's misses by kind
   ([kinds]: fetch, read, write), and its stalls: code and data-read
   misses each cost the full penalty (no prefetch discount). *)
let memsys_agrees m kinds =
  let module M = Ldlp_cache.Memsys in
  let c = M.counters m in
  let penalty =
    (Ldlp_cache.Cache.config (M.icache m)).Ldlp_cache.Config.miss_penalty
  in
  let stall = penalty * (kinds.(0) + kinds.(1)) in
  if
    c.M.icache_misses = kinds.(0)
    && c.M.dcache_misses = kinds.(1)
    && c.M.write_misses = kinds.(2)
    && c.M.stall_cycles = stall
  then None
  else
    Some
      (Printf.sprintf
         "memsys counters: i/d/w %d/%d/%d stall %d, oracle %d/%d/%d stall %d"
         c.M.icache_misses c.M.dcache_misses c.M.write_misses c.M.stall_cycles
         kinds.(0) kinds.(1) kinds.(2) stall)

let differential ?(state_every = 64) ?(unified = false) cfg ops =
  let module C = Ldlp_cache.Cache in
  let memsys =
    if unified then Some (Ldlp_cache.Memsys.create ~icache:cfg ~unified:true ())
    else None
  in
  let subject =
    match memsys with
    | Some m -> Ldlp_cache.Memsys.icache m
    | None -> C.create cfg
  in
  let oracle = create cfg in
  let kinds = Array.make 3 0 in
  let line_bytes = cfg.Ldlp_cache.Config.line_bytes in
  let fail step op detail = Error { step; op; detail } in
  let states_agree step op =
    if C.occupancy subject <> occupancy oracle then
      fail step op
        (Printf.sprintf "occupancy: cache %d, oracle %d" (C.occupancy subject)
           (occupancy oracle))
    else begin
      let s = subject_lines subject and o = resident_lines oracle in
      if s <> o then
        fail step op
          (Printf.sprintf "resident sets differ (%d vs %d lines)"
             (List.length s) (List.length o))
      else Ok ()
    end
  in
  (* Every reference is a byte range to the oracle; the bare cache takes
     single lines through [access]/[access_line], the rest through
     [touch_range]. *)
  let refer step op ~addr ~len =
    let s =
      match (memsys, op) with
      | Some m, _ -> memsys_access m step ~addr ~len
      | None, Access a -> Bool.to_int (not (C.access subject a))
      | None, Access_line l -> Bool.to_int (not (C.access_line subject l))
      | None, _ -> C.touch_range subject ~addr ~len
    in
    let o = touch_range oracle ~addr ~len in
    kinds.(step mod 3) <- kinds.(step mod 3) + o;
    if s <> o then
      fail step op (Printf.sprintf "misses: cache %d, oracle %d" s o)
    else
      match Option.bind memsys (fun m -> memsys_agrees m kinds) with
      | Some detail -> fail step op detail
      | None -> Ok ()
  in
  let last_range = ref (0, 0) in
  let rec go step = function
    | [] -> (
      match states_agree step Flush with
      | Ok () -> Ok (step - 1)
      | Error d -> Error { d with detail = "final state: " ^ d.detail })
    | op :: rest -> (
      let outcome =
        match op with
        | Access a -> refer step op ~addr:a ~len:1
        | Access_line l -> refer step op ~addr:(l * line_bytes) ~len:1
        | Touch_range { addr; len } ->
          last_range := (addr, len);
          refer step op ~addr ~len
        | Retouch ->
          let addr, len = !last_range in
          refer step op ~addr ~len
        | Probe a ->
          let s = C.resident subject a and o = resident oracle a in
          if s <> o then
            fail step op (Printf.sprintf "resident: cache %b, oracle %b" s o)
          else Ok ()
        | Flush ->
          (match memsys with
          | Some m -> Ldlp_cache.Memsys.cold m
          | None -> C.flush subject);
          flush oracle;
          Ok ()
      in
      match outcome with
      | Error _ as e -> e
      | Ok () ->
        if C.hits subject <> hits oracle || C.misses subject <> misses oracle
        then
          fail step op
            (Printf.sprintf "counters: cache %d/%d, oracle %d/%d"
               (C.hits subject) (C.misses subject) (hits oracle)
               (misses oracle))
        else begin
          match
            if step mod state_every = 0 then states_agree step op else Ok ()
          with
          | Error _ as e -> e
          | Ok () -> go (step + 1) rest
        end)
  in
  go 1 ops
