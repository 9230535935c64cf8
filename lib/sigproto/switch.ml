type leg = Up | Down

type call = {
  in_port : int;
  in_ref : int;
  out_port : int;
  out_ref : int;
  mutable up_state : Fsm.state;  (* terminating role toward the caller *)
  mutable down_state : Fsm.state;  (* originating role toward the callee *)
  vpi : int;
  vci : int;
  mutable counted_connect : bool;
}

type stats = {
  setups_routed : int;
  calls_connected : int;
  calls_released : int;
  rejected : int;
  protocol_errors : int;
}

let max_port = max_int lsr 23

let check_port port =
  if port < 0 || port > max_port then invalid_arg "Switch: port out of range"

(* A leg's key packs the (port, 23-bit call_ref) pair it names into one
   int; callers range-check once, in [create] and [handle]. *)
let leg_key ~port ~call_ref = (port lsl 23) lor call_ref

(* [Hashtbl.Make] picks a bucket from the hash's low bits, which for a
   packed key hold only the call reference.  Callers number their calls
   from 1 on every port, so the key is multiplied by a large odd
   constant and its high half folded down: the port lands in the bucket
   index and the same references on many ports spread apart. *)
module Legs = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (k : int) =
    let h = k * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 31)) land max_int
end)

type t = {
  routes : (string * int) list;
  local_port : int;
  max_calls : int;
  auto_answer : bool;
  (* Both legs of a call are keyed by (port, call_ref) as seen on the
     wire; which leg a key names is read back from the call. *)
  legs : call Legs.t;
  mutable next_out_ref : int;
  mutable next_vci : int;
  mutable setups_routed : int;
  mutable calls_connected : int;
  mutable calls_released : int;
  mutable rejected : int;
  mutable protocol_errors : int;
}

let create ?(max_calls = 65536) ?(auto_answer = false) ~routes ~local_port ()
    =
  check_port local_port;
  List.iter (fun (_, port) -> check_port port) routes;
  {
    routes;
    local_port;
    max_calls;
    auto_answer;
    legs = Legs.create 256;
    next_out_ref = 1;
    next_vci = 32;
    setups_routed = 0;
    calls_connected = 0;
    calls_released = 0;
    rejected = 0;
    protocol_errors = 0;
  }

let active_calls t = Legs.length t.legs / 2

let stats t =
  {
    setups_routed = t.setups_routed;
    calls_connected = t.calls_connected;
    calls_released = t.calls_released;
    rejected = t.rejected;
    protocol_errors = t.protocol_errors;
  }

let rec has_prefix address prefix i =
  i >= String.length prefix
  || (String.unsafe_get address i = String.unsafe_get prefix i
     && has_prefix address prefix (i + 1))

let rec route_in routes address default =
  match routes with
  | [] -> default
  | (prefix, port) :: rest ->
    if String.length address >= String.length prefix && has_prefix address prefix 0
    then port
    else route_in rest address default

let route t address = route_in t.routes address t.local_port

let alloc_out_ref t =
  let r = t.next_out_ref in
  t.next_out_ref <- (t.next_out_ref + 1) land 0x7FFFFF;
  if t.next_out_ref = 0 then t.next_out_ref <- 1;
  r

let alloc_vci t =
  let v = t.next_vci in
  t.next_vci <- if t.next_vci >= 0xFFFF then 32 else t.next_vci + 1;
  v

let is_called_party (ie : Ie.t) = ie.Ie.id = Ie.id_called_party

(* The IEs a leg's outgoing message carries: CONNECT names the allocated
   VPI/VCI, and the downstream SETUP forwards the caller's IEs plus it. *)
let ies_for call typ setup_ies =
  match typ with
  | Sigmsg.Connect -> [ Ie.vpc_vci ~vpi:call.vpi ~vci:call.vci ]
  | Sigmsg.Setup -> setup_ies @ [ Ie.vpc_vci ~vpi:call.vpi ~vci:call.vci ]
  | _ -> []

let emit call leg typ ies out =
  let m =
    match leg with
    | Up -> (call.in_port, Sigmsg.v ~from_originator:false ~call_ref:call.in_ref typ ies)
    | Down ->
      (call.out_port, Sigmsg.v ~from_originator:true ~call_ref:call.out_ref typ ies)
  in
  out := m :: !out

(* Translate one leg's FSM actions into wire messages and cross-leg API
   events, recursing across legs until quiescent.  [setup_ies] are the
   caller's SETUP IEs, forwarded on the downstream SETUP. *)
let rec apply t call leg actions setup_ies out =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Fsm.Send typ -> emit call leg typ (ies_for call typ setup_ies) out
    | Fsm.Notify_connected -> (
      match leg with
      | Down ->
        (* The callee answered: accept the upstream half-call. *)
        step t call Up Fsm.Api_accept setup_ies out
      | Up ->
        (* Upstream half-call fully connected (CONNECT_ACK received);
           the connect counter below handles accounting. *)
        ())
    | Fsm.Notify_released -> (
      let other = match leg with Up -> Down | Down -> Up in
      let other_state =
        match other with Up -> call.up_state | Down -> call.down_state
      in
      if not (Fsm.is_terminal other_state) then
        match other with
        | Down when t.auto_answer && call.out_port = t.local_port ->
          (* The switch itself is the callee: no downstream handshake. *)
          call.down_state <- Fsm.Null
        | _ -> step t call other Fsm.Api_release setup_ies out)
    | Fsm.Notify_setup -> ());
    apply t call leg rest setup_ies out

and step t call leg event setup_ies out =
  let state =
    match leg with Up -> call.up_state | Down -> call.down_state
  in
  match Fsm.step state event with
  | Fsm.Protocol_error _ ->
    t.protocol_errors <- t.protocol_errors + 1;
    emit call leg Sigmsg.Status [] out
  | Fsm.Ok_next (state', actions) ->
    (match leg with
    | Up -> call.up_state <- state'
    | Down -> call.down_state <- state');
    apply t call leg actions setup_ies out;
    if
      (not call.counted_connect)
      && call.up_state = Fsm.Active && call.down_state = Fsm.Active
    then begin
      call.counted_connect <- true;
      t.calls_connected <- t.calls_connected + 1
    end

let refuse ~port ~call_ref cause out =
  out :=
    ( port,
      Sigmsg.v ~from_originator:false ~call_ref Sigmsg.Release_complete
        [ Ie.cause cause ] )
    :: !out

let forward_setup t ~port (m : Sigmsg.t) out =
  match List.find is_called_party m.Sigmsg.ies with
  | exception Not_found ->
    t.rejected <- t.rejected + 1;
    refuse ~port ~call_ref:m.Sigmsg.call_ref 96 (* mandatory IE missing *) out
  | called ->
    let out_port = route t called.Ie.data in
    if active_calls t >= t.max_calls then begin
      t.rejected <- t.rejected + 1;
      refuse ~port ~call_ref:m.Sigmsg.call_ref 47 (* resource unavailable *) out
    end
    else begin
      let call =
        {
          in_port = port;
          in_ref = m.Sigmsg.call_ref;
          out_port;
          out_ref = alloc_out_ref t;
          up_state = Fsm.Null;
          down_state = Fsm.Null;
          vpi = 0;
          vci = alloc_vci t;
          counted_connect = false;
        }
      in
      Legs.replace t.legs (leg_key ~port ~call_ref:call.in_ref) call;
      Legs.replace t.legs (leg_key ~port:out_port ~call_ref:call.out_ref) call;
      t.setups_routed <- t.setups_routed + 1;
      (* Upstream: behave as the terminating side of the caller's SETUP. *)
      step t call Up (Fsm.Recv Sigmsg.Setup) [] out;
      if t.auto_answer && out_port = t.local_port then begin
        (* Locally terminated and auto-answered: the virtual callee is
           already off-hook; offer the call upstream immediately. *)
        call.down_state <- Fsm.Active;
        step t call Up Fsm.Api_accept [] out
      end
      else
        (* Downstream: originate toward the callee, forwarding the
           caller's IEs plus the allocated VPI/VCI. *)
        step t call Down Fsm.Api_setup m.Sigmsg.ies out
    end

let cleanup t call =
  if Fsm.is_terminal call.up_state && Fsm.is_terminal call.down_state then begin
    Legs.remove t.legs (leg_key ~port:call.in_port ~call_ref:call.in_ref);
    Legs.remove t.legs (leg_key ~port:call.out_port ~call_ref:call.out_ref);
    t.calls_released <- t.calls_released + 1
  end

let handle t ~port (m : Sigmsg.t) =
  check_port port;
  if m.Sigmsg.call_ref < 0 || m.Sigmsg.call_ref > 0x7FFFFF then
    invalid_arg "Switch: call reference out of 23-bit range";
  let out = ref [] in
  (match Legs.find t.legs (leg_key ~port ~call_ref:m.Sigmsg.call_ref) with
  | exception Not_found -> (
    match m.Sigmsg.typ with
    | Sigmsg.Setup -> forward_setup t ~port m out
    | Sigmsg.Release_complete | Sigmsg.Status ->
      (* Late or stray completions are ignored, per Q.93B custom. *)
      ()
    | _ ->
      t.protocol_errors <- t.protocol_errors + 1;
      refuse ~port ~call_ref:m.Sigmsg.call_ref 81 (* invalid call ref *) out)
  | call ->
    let leg =
      if call.in_port = port && call.in_ref = m.Sigmsg.call_ref then Up else Down
    in
    step t call leg (Fsm.Recv m.Sigmsg.typ) [] out;
    cleanup t call);
  List.rev !out

let vci_of_call t ~call_ref =
  Legs.fold
    (fun _ call acc ->
      match acc with
      | Some _ -> acc
      | None -> if call.in_ref = call_ref then Some (call.vpi, call.vci) else None)
    t.legs None
