module Rng = Ldlp_sim.Rng

type t = {
  hosts : int;
  degree : int;
  edges : (int * int) array;
  adj : int array array;
}

(* Pairing-model attempt: shuffle [degree] stubs per host, match them
   pairwise, reject self-loops and parallel edges.  Returns the canonical
   sorted edge array on success. *)
let attempt rng ~hosts ~degree =
  let nstubs = hosts * degree in
  let stubs = Array.init nstubs (fun k -> k / degree) in
  Rng.shuffle rng stubs;
  let nedges = nstubs / 2 in
  let edges = Array.make nedges (0, 0) in
  let seen = Hashtbl.create (2 * nedges) in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < nedges do
    let u = stubs.(2 * !i) and v = stubs.((2 * !i) + 1) in
    if u = v then ok := false
    else begin
      let e = (min u v, max u v) in
      if Hashtbl.mem seen e then ok := false
      else begin
        Hashtbl.add seen e ();
        edges.(!i) <- e
      end
    end;
    incr i
  done;
  if !ok then begin
    Array.sort compare edges;
    Some edges
  end
  else None

let adjacency ~hosts ~degree edges =
  let adj = Array.map (fun _ -> Array.make degree (-1)) (Array.make hosts 0) in
  let fill = Array.make hosts 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      adj.(v).(fill.(v)) <- u;
      fill.(u) <- fill.(u) + 1;
      fill.(v) <- fill.(v) + 1)
    edges;
  (* Edges arrive sorted, so each row is already ascending; keep the
     canonical order explicit anyway (cheap, and the property suite
     asserts it). *)
  Array.iter (fun row -> Array.sort compare row) adj;
  adj

let connected_adj ~hosts adj =
  let visited = Array.make hosts false in
  let queue = Queue.create () in
  Queue.push 0 queue;
  visited.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          incr count;
          Queue.push v queue
        end)
      adj.(u)
  done;
  !count = hosts

(* Draw pairings until one is simple and connected. *)
let sample ~hosts ~degree ~seed =
  let rng = Rng.create ~seed in
  let max_attempts = 10_000 in
  let rec draw k =
    if k >= max_attempts then
      invalid_arg
        (Printf.sprintf
           "Topology.generate: no simple connected %d-regular graph on %d \
            hosts after %d attempts (seed %d)"
           degree hosts max_attempts seed)
    else
      match attempt rng ~hosts ~degree with
      | None -> draw (k + 1)
      | Some edges ->
        let adj = adjacency ~hosts ~degree edges in
        if connected_adj ~hosts adj then { hosts; degree; edges; adj }
        else draw (k + 1)
  in
  draw 0

(* The complete graph is the only simple graph of degree [hosts - 1],
   and the pairing model almost never draws it, so it is built directly
   (edges in canonical order). *)
let complete ~hosts =
  let degree = hosts - 1 in
  let edges =
    Array.concat
      (List.init hosts (fun u ->
           Array.init (hosts - 1 - u) (fun k -> (u, u + 1 + k))))
  in
  { hosts; degree; edges; adj = adjacency ~hosts ~degree edges }

let generate ~hosts ~degree ~seed =
  if hosts < 2 then invalid_arg "Topology.generate: hosts < 2";
  if degree < 1 || degree >= hosts then
    invalid_arg "Topology.generate: need 1 <= degree < hosts";
  if (hosts * degree) mod 2 <> 0 then
    invalid_arg "Topology.generate: hosts * degree must be even";
  if degree = hosts - 1 then complete ~hosts else sample ~hosts ~degree ~seed

let neighbors t h = t.adj.(h)

let edge_count t = Array.length t.edges

(* Binary search in the sorted canonical edge array. *)
let edge_position t u v =
  let key = (min u v, max u v) in
  let lo = ref 0 and hi = ref (Array.length t.edges - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare t.edges.(mid) key in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

let directed_index t ~src ~dst =
  let p = edge_position t src dst in
  if p < 0 then
    invalid_arg
      (Printf.sprintf "Topology.directed_index: no edge %d-%d" src dst);
  (2 * p) + if src < dst then 0 else 1

let is_connected t = connected_adj ~hosts:t.hosts t.adj

let eccentricity t h =
  let dist = Array.make t.hosts (-1) in
  let queue = Queue.create () in
  Queue.push h queue;
  dist.(h) <- 0;
  let ecc = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if dist.(v) > !ecc then ecc := dist.(v);
          Queue.push v queue
        end)
      t.adj.(u)
  done;
  !ecc
