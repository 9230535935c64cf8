(* The tag state and LRU/direct-mapped machinery live in [Replace] (shared
   with the flow table); this module adds the address-to-line mapping, the
   hit/miss counters the cost model reads, and the repeat-range memo.

   Memo: after [touch_range] has referenced lines [first..last] with
   [last - first < sets], those lines sit in distinct sets (consecutive
   line numbers differ modulo the power-of-two set count), each at its
   set's MRU position.  Touching the same range again is then all hits,
   and an MRU hit moves nothing, so the tag state is unchanged: the call
   costs [n] hits and nothing else.  Every other state-changing operation
   ([access], [access_line], a different range, [flush]) clears the memo;
   probes ([resident], [iter_resident]) change no state and keep it. *)

type t = {
  cfg : Config.t;
  set_shift : int; (* log2 line_bytes, to go from addr to line *)
  rep : Replace.t;
  mutable hits : int;
  mutable misses : int;
  mutable memo_first : int; (* memo range; none when last < first *)
  mutable memo_last : int;
}

(* A touched range always has [last >= first], so this never matches. *)
let clear_memo t =
  t.memo_first <- 1;
  t.memo_last <- 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  {
    cfg;
    set_shift = log2 cfg.Config.line_bytes;
    rep = Replace.create ~sets:(Config.sets cfg) ~ways:cfg.Config.associativity;
    hits = 0;
    misses = 0;
    memo_first = 1;
    memo_last = 0;
  }

let config t = t.cfg

let access_line t line =
  clear_memo t;
  if Replace.access t.rep line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let access t addr = access_line t (addr asr t.set_shift)

let touch_range t ~addr ~len =
  if len <= 0 then 0
  else begin
    let first = addr asr t.set_shift in
    let last = (addr + len - 1) asr t.set_shift in
    let n = last - first + 1 in
    if first = t.memo_first && last = t.memo_last then begin
      t.hits <- t.hits + n;
      0
    end
    else begin
      let m = Replace.access_run t.rep ~first ~last in
      t.hits <- t.hits + (n - m);
      t.misses <- t.misses + m;
      if n <= Replace.sets t.rep then begin
        t.memo_first <- first;
        t.memo_last <- last
      end
      else clear_memo t;
      m
    end
  end

let resident t addr = Replace.probe t.rep (addr asr t.set_shift)

let flush t =
  clear_memo t;
  Replace.flush t.rep

let occupancy t = Replace.occupancy t.rep

let iter_resident t f = Replace.iter t.rep f

let hits t = t.hits

let misses t = t.misses

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
