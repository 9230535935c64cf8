(* Benchmark-side tracing.  Wrappers around each public [Layer.t] handler,
   around [Engine.step] and around the calls a workload makes into the
   library record spans: kind, message id, start, end and the minor words
   allocated inside.  Per-kind totals cover every span; the first
   [capacity] spans are also kept in preallocated arrays until the run
   ends, for the Chrome Trace Event export.

   Handler spans never nest (the engine calls the next handler only after
   the previous one returned), so a handler's self time is its duration.
   A step span's children are the handler spans inside it; its self time
   — the engine's own scheduling work, sinks included — is the duration
   minus theirs and minus the wrappers' own cost around them
   ({!calibrate}). *)

module Core = Ldlp_core

type t = {
  names : string array;  (** Kind index -> span name. *)
  count : int array;
  total_ns : int array;
  self_ns : int array;
  words : float array;
  capacity : int;
  kind : int array;
  id : int array;
  t0 : int array;
  t1 : int array;
  mutable n : int;
  mutable child_ns : int;  (** Handler time inside the open step span. *)
  mutable children : int;  (** Handler spans inside the open step span. *)
  mutable leaf_cost_ns : float;
      (** Wrapper time a leaf span adds outside its own interval. *)
  mutable dropped : int;  (** Spans past [capacity] (totals still kept). *)
  mutable scale : float;
      (** Host-speed factor ({!Meas.Hostref}) applied to the totals; the
          exported spans keep real time. *)
}

let create ?(capacity = 50_000) names =
  let names = Array.of_list names in
  let k = Array.length names in
  {
    names;
    count = Array.make k 0;
    total_ns = Array.make k 0;
    self_ns = Array.make k 0;
    words = Array.make k 0.0;
    capacity;
    kind = Array.make capacity 0;
    id = Array.make capacity 0;
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    n = 0;
    child_ns = 0;
    children = 0;
    leaf_cost_ns = 0.0;
    dropped = 0;
    scale = 1.0;
  }

let find names name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Spans: no span kind " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let kind t name = find t.names name

let keep t k id t0 t1 =
  if t.n < t.capacity then begin
    t.kind.(t.n) <- k;
    t.id.(t.n) <- id;
    t.t0.(t.n) <- t0;
    t.t1.(t.n) <- t1;
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

let record t k ~id ~t0 ~t1 ~self ~words =
  t.count.(k) <- t.count.(k) + 1;
  t.total_ns.(k) <- t.total_ns.(k) + int_of_float (float_of_int (t1 - t0) *. t.scale);
  t.self_ns.(k) <- t.self_ns.(k) + int_of_float (float_of_int self *. t.scale);
  t.words.(k) <- t.words.(k) +. words;
  keep t k id t0 t1

(* A leaf span around [f x]; its duration also counts as child time of the
   enclosing step span. *)
let[@inline] leaf t k ~id f x =
  let w0 = Meas.minor_words () in
  let t0 = Meas.now_ns () in
  let r = f x in
  let t1 = Meas.now_ns () in
  let w1 = Meas.minor_words () in
  t.child_ns <- t.child_ns + (t1 - t0);
  t.children <- t.children + 1;
  record t k ~id ~t0 ~t1 ~self:(t1 - t0) ~words:(w1 -. w0);
  r

(* Measure the wrapper's own cost outside a leaf interval (two allocation
   reads, the bookkeeping), so a step's self time can exclude it: time
   many leaf spans around a no-op from outside and subtract what they
   recorded inside. *)
let calibrate t =
  let c = create ~capacity:1 [ "calibrate" ] in
  let n = 20_000 in
  let t0 = Meas.now_ns () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (leaf c 0 ~id:0 Fun.id ()))
  done;
  let outer = Meas.now_ns () - t0 in
  t.leaf_cost_ns <- Float.max 0.0 (float_of_int (outer - c.total_ns.(0)) /. float_of_int n)

(* Wrap both handlers of a layer.  [on_start msg t0] runs before a
   receive handler (the entry layer uses it for queue-wait samples). *)
let wrap_layer ?(on_start = fun _ _ -> ()) t ~rx ~tx (l : 'a Core.Layer.t) =
  let krx = kind t rx and ktx = kind t tx in
  {
    l with
    Core.Layer.handle =
      (fun m ->
        on_start m (Meas.now_ns ());
        leaf t krx ~id:m.Core.Msg.id l.Core.Layer.handle m);
    handle_tx = (fun m -> leaf t ktx ~id:m.Core.Msg.id l.Core.Layer.handle_tx m);
  }

(* A parent span around [f x]: its self time excludes the leaf spans
   inside it and the wrappers' own cost around them. *)
let parent t k ~id f x =
  t.child_ns <- 0;
  t.children <- 0;
  let w0 = Meas.minor_words () in
  let t0 = Meas.now_ns () in
  let r = f x in
  let t1 = Meas.now_ns () in
  let w1 = Meas.minor_words () in
  let wrappers = int_of_float (float_of_int t.children *. t.leaf_cost_ns) in
  record t k ~id ~t0 ~t1 ~self:(max 0 (t1 - t0 - t.child_ns - wrappers)) ~words:(w1 -. w0);
  r

(* One engine quantum as a step span. *)
let step t k eng = parent t k ~id:(-1) Core.Engine.step eng

let run t k eng =
  while step t k eng do
    ()
  done

(* Per-kind totals frozen at one moment, so metrics can describe one phase
   of a run while spans keep being recorded. *)
type totals = {
  s_names : string array;
  s_count : int array;
  s_total : int array;
  s_self : int array;
  s_words : float array;
}

let snapshot t =
  {
    s_names = t.names;
    s_count = Array.copy t.count;
    s_total = Array.copy t.total_ns;
    s_self = Array.copy t.self_ns;
    s_words = Array.copy t.words;
  }

let index s name = find s.s_names name

let count s name = s.s_count.(index s name)

let total_ns s name = float_of_int s.s_total.(index s name)

let self_ns s name = float_of_int s.s_self.(index s name)

let words s name = s.s_words.(index s name)

(* Chrome Trace Event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open as they are.  Spans of one message
   share [args.msg]. *)
let export_chrome t path =
  let oc = open_out path in
  let base = if t.n = 0 then 0 else t.t0.(0) in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for i = 0 to t.n - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
       %.3f, \"dur\": %.3f, \"args\": {\"msg\": %d}}"
      t.names.(t.kind.(i))
      (float_of_int (t.t0.(i) - base) /. 1000.0)
      (float_of_int (t.t1.(i) - t.t0.(i)) /. 1000.0)
      t.id.(i)
  done;
  Printf.fprintf oc "\n], \"otherData\": {\"spans_not_exported\": %d}}\n" t.dropped;
  close_out oc
