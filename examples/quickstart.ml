(* Quickstart: build a small four-layer protocol stack, run the same
   layers under conventional and LDLP scheduling, and watch batching kick
   in under load.

     dune exec examples/quickstart.exe

   The layers here are trivial (they stamp the message and pass it up);
   what changes between the two runs is purely the *order* in which
   (layer, message) pairs execute — which is the paper's entire trick. *)

module Core = Ldlp_core

let () =
  (* 1. Define layers.  A layer is a name, an optional cache footprint
     (used by the analytic planner below), and a handler. *)
  let layer name =
    Core.Layer.v ~name
      ~fp:(Core.Layer.footprint ~code_bytes:6144 ~data_bytes:256 ())
      (fun msg ->
        (* A real layer would parse/strip a header here; an mbuf chain in
           msg.payload supports that without copying (see web_server.ml). *)
        [ Core.Layer.Deliver_up msg ])
  in
  let layers = List.map layer [ "mac"; "net"; "transport"; "session" ] in

  (* 2. Ask the blocking planner (Section 3.2 of the paper) what to expect
     for this stack on the paper's machine. *)
  let stack_shape =
    {
      Core.Blocking.layer_code_bytes = List.map (fun l -> l.Core.Layer.fp.Core.Layer.code_bytes) layers;
      layer_data_bytes = List.map (fun l -> l.Core.Layer.fp.Core.Layer.data_bytes) layers;
      msg_bytes = 552;
      cycles_per_msg = 4 * 1652;
    }
  in
  let plan = Core.Blocking.recommend Core.Blocking.paper_machine stack_shape in
  Format.printf "Planner says:@.%a@.@."
    Core.Blocking.pp_recommendation plan;

  (* 3. Drive both disciplines with the same overloaded Poisson arrival
     schedule, in virtual time.  The stack takes everything that has
     arrived when it finishes a quantum; a full 500-message buffer drops
     the arrival.  The service model scales to the paper's machine: the
     whole conventional stack costs ~286 us per message (4 layers x
     ~71.5 us of cache refill + execution), and a layer's refill is paid
     once per batch it runs in a quantum — the I-cache economics of the
     paper, in miniature. *)
  let rng = Ldlp_sim.Rng.create ~seed:42 in
  let arrivals =
    let rec go acc t =
      let t = t +. Ldlp_sim.Rng.exponential rng ~mean:(1.0 /. 8000.0) in
      if t >= 0.5 then List.rev acc else go (t :: acc) t
    in
    go [] 0.0
  in
  let service ~batch = 71.5e-6 /. float_of_int batch +. 0.55e-6 in
  let run discipline =
    let now = ref 0.0 and dropped = ref 0 and completed = ref [] in
    let latency = Ldlp_sim.Hist.create () in
    (* Handler calls per layer in the current quantum. *)
    let ran = Array.make (List.length layers) 0 in
    let eng =
      Core.Engine.rx_chain ~discipline ~layers
        ~up:(fun m -> completed := m :: !completed)
        ~on_handled:(fun i _ _ -> ran.(i) <- ran.(i) + 1)
        ()
    in
    let waiting = ref arrivals in
    let rec admit () =
      match !waiting with
      | at :: rest when at <= !now ->
        waiting := rest;
        if Core.Engine.backlog eng ~node:0 >= 500 then incr dropped
        else
          Core.Engine.inject eng ~node:0
            (Core.Msg.make ~arrival:at ~size:552 ());
        admit ()
      | _ -> ()
    in
    while !waiting <> [] || Core.Engine.pending eng > 0 do
      admit ();
      if Core.Engine.pending eng = 0 then now := List.hd !waiting
      else begin
        Array.fill ran 0 (Array.length ran) 0;
        completed := [];
        ignore (Core.Engine.step eng);
        Array.iter
          (fun batch ->
            for _ = 1 to batch do
              now := !now +. service ~batch
            done)
          ran;
        List.iter
          (fun m -> Ldlp_sim.Hist.add latency (!now -. m.Core.Msg.arrival))
          !completed
      end
    done;
    (Ldlp_sim.Hist.count latency, !dropped, latency, Core.Engine.stats eng)
  in
  let show name (processed, dropped, latency, (st : Core.Engine.stats)) =
    Printf.printf
      "%-13s processed %5d  dropped %4d  mean latency %8.1f us  p99 %8.1f us  max batch %d\n"
      name processed dropped
      (Ldlp_sim.Hist.mean latency *. 1e6)
      (Ldlp_sim.Hist.percentile latency 0.99 *. 1e6)
      st.Core.Engine.max_batch
  in
  Printf.printf "8000 msg/s offered for 0.5 s, 552-byte messages:\n";
  show "conventional" (run Core.Engine.Conventional);
  show "ldlp" (run (Core.Engine.Ldlp Core.Batch.paper_default));
  print_newline ();
  Printf.printf
    "LDLP survives the same load by running each layer over a batch of\n\
     messages (up to %d here), paying the layer's cache footprint once per\n\
     batch instead of once per message.\n"
    plan.Core.Blocking.batch
