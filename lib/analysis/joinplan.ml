(* Variable-order selection for the worst-case-optimal join engine: the
   pure planning half of lib/core/join.  Variables pinned by a singleton
   atom first, then a greedy smallest-estimate-first run from every
   possible start, staying connected to the chosen prefix when possible;
   the run with the least estimated work wins. *)

type atom_stat = {
  vars : int array;
  size : float;
  distinct : float array;
  fanout : float array;
  label : string;
}

let validate ~num_vars atoms =
  List.iter
    (fun a ->
      if Array.length a.vars <> Array.length a.distinct
         || Array.length a.vars <> Array.length a.fanout
      then invalid_arg "Joinplan: vars/distinct/fanout length mismatch";
      Array.iter
        (fun v ->
          if v < 0 || v >= num_vars then invalid_arg "Joinplan: variable id out of range")
        a.vars)
    atoms

(* Cheapest way atom [a] can enumerate candidate values for [v], given
   the set of already-chosen variables: with nothing bound it is the
   column's distinct count; with the sibling of a binary atom bound it
   is the size-biased fan-out of the sibling's column (the group size a
   random tuple sits in, which sees skew that size / distinct hides);
   with siblings of a wider atom bound it is size / prod(distinct of
   bound siblings).  Floored at 1. *)
let atom_score chosen a v =
  let bound_product = ref 1.0 and bound = ref (-1) and mine = ref infinity in
  Array.iteri
    (fun i w ->
      if w = v then mine := a.distinct.(i)
      else if chosen.(w) then begin
        bound := i;
        bound_product := !bound_product *. Float.max 1.0 a.distinct.(i)
      end)
    a.vars;
  if !mine = infinity then infinity (* atom does not mention v *)
  else if !bound < 0 then !mine
  else if Array.length a.vars = 2 then Float.max 1.0 a.fanout.(!bound)
  else Float.max 1.0 (a.size /. !bound_product)

let score chosen atoms v =
  List.fold_left (fun acc a -> Float.min acc (atom_score chosen a v)) infinity atoms

let choose_order ~num_vars atoms =
  validate ~num_vars atoms;
  let mentioned = Array.make num_vars false in
  List.iter (fun a -> Array.iter (fun v -> mentioned.(v) <- true) a.vars) atoms;
  (* A variable a singleton atom pins to one value (a constant) is bound
     before any other, so every atom over it opens on that value. *)
  let pins =
    List.fold_left
      (fun acc a ->
        if Array.length a.vars = 1 && a.size <= 1.0 && not (List.mem a.vars.(0) acc) then
          a.vars.(0) :: acc
        else acc)
      [] atoms
  in
  let adjacent chosen v =
    List.exists
      (fun a -> Array.exists (( = ) v) a.vars && Array.exists (fun w -> chosen.(w)) a.vars)
      atoms
  in
  (* Connected candidates always beat disconnected ones. *)
  let candidates chosen =
    let vs = List.filter (fun v -> mentioned.(v) && not chosen.(v)) (List.init num_vars Fun.id) in
    match List.filter (adjacent chosen) vs with [] -> vs | adj -> adj
  in
  let pinned () = Array.init num_vars (fun v -> List.mem v pins) in
  (* The greedy from [start]: each step takes the smallest-estimate
     candidate (smaller id on ties).  Its work is the sum over levels of
     the estimated prefix bindings times that level's score. *)
  let greedy start =
    let chosen = pinned () in
    let order = ref pins and work = ref 0.0 and prefix = ref 1.0 in
    let rec take v =
      let s = score chosen atoms v in
      chosen.(v) <- true;
      order := v :: !order;
      work := !work +. (!prefix *. s);
      prefix := !prefix *. s;
      match candidates chosen with
      | [] -> ()
      | c :: cs ->
          take
            (List.fold_left
               (fun b v -> if score chosen atoms v < score chosen atoms b then v else b)
               c cs)
    in
    take start;
    (List.rev !order, !work)
  in
  let best =
    List.fold_left
      (fun best v ->
        let ((_, w) as run) = greedy v in
        match best with Some (_, bw) when bw <= w -> best | _ -> Some run)
      None
      (candidates (pinned ()))
  in
  let order = match best with Some (o, _) -> o | None -> List.rev pins in
  (* Unmentioned variables last, in id order. *)
  Array.of_list (order @ List.filter (fun v -> not mentioned.(v)) (List.init num_vars Fun.id))

let describe ~var_name atoms ~order =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "variable order: ";
  Buffer.add_string buf
    (String.concat " -> " (Array.to_list (Array.map var_name order)));
  Buffer.add_string buf "\nper-atom estimates:\n";
  let per_column fmt a col =
    String.concat "/"
      (Array.to_list (Array.mapi (fun i v -> Printf.sprintf fmt (var_name v) col.(i)) a.vars))
  in
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: ~%.0f tuples, distinct %s, fan-out %s\n" a.label a.size
           (per_column "%s:%.0f" a a.distinct)
           (per_column "%s:%.1f" a a.fanout)))
    atoms;
  Buffer.contents buf
