(* Clocks, allocation counters and sample statistics. *)

(* Monotonic nanoseconds.  The external returns an unboxed int64, so a read
   allocates nothing. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor-heap words this domain has allocated so far (an unboxed read). *)
let[@inline] minor_words () = Gc.minor_words ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* A growable buffer of integer samples.  Callers on a timed path create it
   with enough capacity that [add] never grows. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 1 cap) 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* Grow to [cap] slots now, so adds on a timed path never reallocate and
     the heap's high-water mark does not depend on how many samples a run
     happened to take. *)
  let reserve t cap =
    if Array.length t.a < cap then begin
      let b = Array.make cap 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end

  let length t = t.n

  let sorted t =
    let c = Array.sub t.a 0 t.n in
    Array.sort Int.compare c;
    c
end

(* Quantile of a sorted array by linear interpolation between closest
   ranks (numpy's default).  [nan] for an empty array. *)
let quantile_of get n q =
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then get (n - 1)
    else
      let frac = pos -. float_of_int i in
      get i +. (frac *. (get (i + 1) -. get i))

let quantile (sorted : int array) q =
  quantile_of (fun i -> float_of_int sorted.(i)) (Array.length sorted) q

let quantile_f (sorted : float array) q =
  quantile_of (fun i -> sorted.(i)) (Array.length sorted) q

let median_f (xs : float list) =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile_f a 0.5

(* Wall time of [f ()] in seconds. *)
let time_s f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) *. 1e-9)

(* Spin until the monotonic clock reaches [deadline_ns]. *)
let wait_until deadline_ns =
  while now_ns () < deadline_ns do
    ()
  done

(* Host-speed reference.  On a shared host the speed of the stacks drifts
   by tens of percent over seconds (another tenant on the same core or
   cache), while a fixed stdlib kernel of the same character drifts in
   step.  Workloads time this kernel next to each round of work and scale
   their timings by [nominal_ns / kernel time]: the result reads as the
   time on a host where the kernel takes exactly [nominal_ns].  The run's
   median factor is reported, so raw rates can be recovered. *)
module Hostref = struct
  let nominal_ns = 100_000

  module Smap = Map.Make (String)

  (* Formatting, a string map, small sorts and string functions: short
     allocations spread over a large instruction and data footprint, like
     a protocol stack's.  (A tight loop over a hash table tracked the
     stacks' drift much worse.) *)
  let kernel () =
    let acc = ref 0 in
    let m = ref Smap.empty in
    for i = 0 to 199 do
      let s = Printf.sprintf "call-%d/%x" i (i * 7919) in
      m := Smap.add s i !m;
      let parts = String.split_on_char '/' s in
      let l = List.sort compare [ i land 7; (i * 3) land 7; (i * 5) land 7; 1 ] in
      acc := !acc + List.length parts + List.hd l + String.length (String.uppercase_ascii s)
    done;
    ignore (Sys.opaque_identity (!acc + Smap.cardinal !m))

  let window = 5

  type t = { all : Samples.t; recent : int array; mutable n : int }

  (* Time the kernel once; the factor then uses the median of the last
     [window] timings, so one timing hit by a stall does not skew it. *)
  let sample t =
    (* A first, untimed pass refills the caches and branch predictors with
       the kernel's own state, so the timed pass does not depend on what
       the workload left there: timed straight after a round of the real
       stacks, the kernel took 3-6% longer than a second pass, while an
       8 MiB data-cache scrub before it cost nothing measurable. *)
    kernel ();
    (* An empty minor heap, so the kernel never pays for a collection (and
       the major-GC debt of the workload around it). *)
    Gc.minor ();
    let t0 = now_ns () in
    kernel ();
    let dt = now_ns () - t0 in
    Samples.add t.all dt;
    t.recent.(t.n mod window) <- dt;
    t.n <- t.n + 1

  (* A reference primed with [window] timings. *)
  let create () =
    let t = { all = Samples.create 1024; recent = Array.make window 0; n = 0 } in
    for _ = 1 to window do
      sample t
    done;
    t

  let factor t =
    let a = Array.sub t.recent 0 (min t.n window) in
    Array.sort Int.compare a;
    float_of_int nominal_ns /. quantile a 0.5

  (* Median factor over the run, for the report. *)
  let median_factor t =
    float_of_int nominal_ns /. quantile (Samples.sorted t.all) 0.5
end
