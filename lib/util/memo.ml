(* One list of bindings, replaced whole by compare-and-set, so a reader
   always scans a complete list. *)
type binding = Binding : 'a Type.Id.t * 'a -> binding
type t = binding list Atomic.t

let create () : t = Atomic.make []

let rec find : type a. a Type.Id.t -> binding list -> a option =
 fun id -> function
  | [] -> None
  | Binding (id', v) :: rest -> (
      match Type.Id.provably_equal id id' with Some Type.Equal -> Some v | None -> find id rest)

(* [build] runs outside any lock: two racing readers may both build,
   and the first insert wins, so every caller sees one value. *)
let rec get t id build =
  let seen = Atomic.get t in
  match find id seen with
  | Some v -> v
  | None ->
      let v = build () in
      if Atomic.compare_and_set t seen (Binding (id, v) :: seen) then v else get t id (fun () -> v)
