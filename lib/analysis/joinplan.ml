(* Variable-order selection for the worst-case-optimal join engine: the
   pure planning half of lib/core/join.  Variables pinned by a singleton
   atom first, then greedy smallest-estimate-first, staying connected to
   the chosen prefix when possible. *)

type atom_stat = {
  vars : int array;
  size : float;
  distinct : float array;
  label : string;
}

let validate ~num_vars atoms =
  List.iter
    (fun a ->
      if Array.length a.vars <> Array.length a.distinct then
        invalid_arg "Joinplan: vars/distinct length mismatch";
      Array.iter
        (fun v ->
          if v < 0 || v >= num_vars then invalid_arg "Joinplan: variable id out of range")
        a.vars)
    atoms

(* Cheapest way atom [a] can enumerate candidate values for [v], given
   the set of already-chosen variables: with nothing bound it is the
   column's distinct count; with siblings bound it is the expected
   fan-out size / prod(distinct of bound siblings), floored at 1. *)
let atom_score chosen a v =
  let bound_product = ref 1.0 and any_bound = ref false and mine = ref infinity in
  Array.iteri
    (fun i w ->
      if w = v then mine := a.distinct.(i)
      else if chosen.(w) then begin
        any_bound := true;
        bound_product := !bound_product *. Float.max 1.0 a.distinct.(i)
      end)
    a.vars;
  if !mine = infinity then infinity (* atom does not mention v *)
  else if !any_bound then Float.max 1.0 (a.size /. !bound_product)
  else !mine

let score chosen atoms v =
  List.fold_left (fun acc a -> Float.min acc (atom_score chosen a v)) infinity atoms

let choose_order ~num_vars atoms =
  validate ~num_vars atoms;
  let chosen = Array.make num_vars false in
  let order = ref [] and picked = ref 0 in
  let mentioned = Array.make num_vars false in
  List.iter (fun a -> Array.iter (fun v -> mentioned.(v) <- true) a.vars) atoms;
  let adjacent v =
    List.exists
      (fun a ->
        Array.exists (( = ) v) a.vars && Array.exists (fun w -> chosen.(w)) a.vars)
      atoms
  in
  let num_mentioned = Array.fold_left (fun n m -> if m then n + 1 else n) 0 mentioned in
  (* A variable a singleton atom pins to one value (a constant) is bound
     before any other, so every atom over it opens on that value. *)
  List.iter
    (fun a ->
      if Array.length a.vars = 1 && a.size <= 1.0 && not chosen.(a.vars.(0)) then begin
        chosen.(a.vars.(0)) <- true;
        order := a.vars.(0) :: !order;
        incr picked
      end)
    atoms;
  while !picked < num_mentioned do
    let best = ref (-1) and best_score = ref infinity and best_adj = ref false in
    for v = num_vars - 1 downto 0 do
      if mentioned.(v) && not chosen.(v) then begin
        let s = score chosen atoms v in
        let adj = !picked > 0 && adjacent v in
        (* Connected candidates always beat disconnected ones; within a
           class, smaller estimate wins, then smaller id (the downto loop
           makes the last assignment the smallest id on ties). *)
        let better =
          match (adj, !best_adj) with
          | true, false -> !picked > 0
          | false, true -> false
          | _ -> s <= !best_score || !best < 0
        in
        if better then begin
          best := v;
          best_score := s;
          best_adj := adj
        end
      end
    done;
    chosen.(!best) <- true;
    order := !best :: !order;
    incr picked
  done;
  (* Unmentioned variables last, in id order. *)
  for v = num_vars - 1 downto 0 do
    if not mentioned.(v) then order := v :: !order
  done;
  Array.of_list (List.rev !order)

let describe ~var_name atoms ~order =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "variable order: ";
  Buffer.add_string buf
    (String.concat " -> " (Array.to_list (Array.map var_name order)));
  Buffer.add_string buf "\nper-atom estimates:\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: ~%.0f tuples, distinct %s\n" a.label a.size
           (String.concat "/"
              (Array.to_list
                 (Array.mapi
                    (fun i v -> Printf.sprintf "%s:%.0f" (var_name v) a.distinct.(i))
                    a.vars)))))
    atoms;
  Buffer.contents buf
