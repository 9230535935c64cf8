(* What one run reports: metrics (with unit and sample count), the raw
   facts the output checks judge, and failure counters.  The executable
   prints it as one JSON line; run.py checks it and prints the result. *)

type metric = { name : string; value : float; unit_ : string; n : int }

type t = {
  mutable metrics : metric list;  (** Newest first. *)
  mutable checks : (string * Json.t) list;
  mutable failures : (string * int) list;
  mutable attempted : int;
}

let create () = { metrics = []; checks = []; failures = []; attempted = 0 }

let metric t ?(n = 1) name unit_ value =
  t.metrics <- { name; value; unit_; n } :: t.metrics

let has_metric t name = List.exists (fun m -> m.name = name) t.metrics

let check t name v = t.checks <- (name, v) :: t.checks

let check_int t name v = check t name (Json.Int v)

let failure t name count = t.failures <- (name, count) :: t.failures

let attempted t n = t.attempted <- t.attempted + n

(* Ratio with a zero base read as 0 (a layer that never ran). *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let to_json t =
  Json.Obj
    [
      ("attempted", Json.Int t.attempted);
      ( "failures",
        Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Int v)) t.failures) );
      ("checks", Json.Obj (List.rev t.checks));
      ( "metrics",
        Json.Obj
          (List.rev_map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.value);
                     ("unit", Json.Str m.unit_);
                     ("n", Json.Int m.n);
                   ] ))
             t.metrics) );
    ]
