(* Typed mutations over property graphs: the write-path vocabulary shared
   by the journal (durable replay log), the delta overlay (in-memory
   accumulation) and the CLI mutation scripts.

   The surface follows the CREATE/MERGE/SET/REMOVE/DELETE cues of the
   openCypher grammar (Apache AGE; SNIPPETS.md): [Add_*] creates and
   fails on an existing id, [Merge_*] matches-or-creates (a no-op when a
   live object with that id already exists), [Set_*_prop] upserts one
   property, [Del_*_prop] removes one (absent properties are a no-op),
   and [Del_node] cascades over incident edges.

   One op per line, whitespace-separated tokens:

     node <id> <label>              create a node
     mergenode <id> <label>         create the node unless it exists
     edge <id> <src> <dst> <label>  create an edge
     mergeedge <id> <src> <dst> <label>
     nprop <id> <prop>=<value>      set a node property
     eprop <id> <prop>=<value>      set an edge property
     delnprop <id> <prop>           remove a node property
     deleprop <id> <prop>           remove an edge property
     delnode <id>                   delete a node (and incident edges)
     deledge <id>                   delete an edge *)

type t =
  | Add_node of { id : Const.t; label : Const.t }
  | Merge_node of { id : Const.t; label : Const.t }
  | Add_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Merge_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Set_node_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Set_edge_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Del_node_prop of { id : Const.t; prop : Const.t }
  | Del_edge_prop of { id : Const.t; prop : Const.t }
  | Del_node of { id : Const.t }
  | Del_edge of { id : Const.t }

exception Op_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Op_error { line; message })) fmt

let to_line = function
  | Add_node { id; label } -> Printf.sprintf "node %s %s" (Const.to_string id) (Const.to_string label)
  | Merge_node { id; label } ->
      Printf.sprintf "mergenode %s %s" (Const.to_string id) (Const.to_string label)
  | Add_edge { id; src; dst; label } ->
      Printf.sprintf "edge %s %s %s %s" (Const.to_string id) (Const.to_string src)
        (Const.to_string dst) (Const.to_string label)
  | Merge_edge { id; src; dst; label } ->
      Printf.sprintf "mergeedge %s %s %s %s" (Const.to_string id) (Const.to_string src)
        (Const.to_string dst) (Const.to_string label)
  | Set_node_prop { id; prop; value } ->
      Printf.sprintf "nprop %s %s=%s" (Const.to_string id) (Const.to_string prop) (Const.to_string value)
  | Set_edge_prop { id; prop; value } ->
      Printf.sprintf "eprop %s %s=%s" (Const.to_string id) (Const.to_string prop) (Const.to_string value)
  | Del_node_prop { id; prop } ->
      Printf.sprintf "delnprop %s %s" (Const.to_string id) (Const.to_string prop)
  | Del_edge_prop { id; prop } ->
      Printf.sprintf "deleprop %s %s" (Const.to_string id) (Const.to_string prop)
  | Del_node { id } -> Printf.sprintf "delnode %s" (Const.to_string id)
  | Del_edge { id } -> Printf.sprintf "deledge %s" (Const.to_string id)

let parse_prop ~line token =
  match String.index_opt token '=' with
  | Some i when i > 0 && i < String.length token - 1 ->
      ( Const.of_string (String.sub token 0 i),
        Const.of_string (String.sub token (i + 1) (String.length token - i - 1)) )
  | _ -> fail line "malformed property %S" token

let of_line ~line text =
  let tokens = String.split_on_char ' ' text |> List.filter (fun t -> t <> "") in
  match tokens with
  | [] -> None
  | [ "node"; id; label ] -> Some (Add_node { id = Const.of_string id; label = Const.of_string label })
  | [ "mergenode"; id; label ] ->
      Some (Merge_node { id = Const.of_string id; label = Const.of_string label })
  | [ "edge"; id; src; dst; label ] ->
      Some
        (Add_edge
           {
             id = Const.of_string id;
             src = Const.of_string src;
             dst = Const.of_string dst;
             label = Const.of_string label;
           })
  | [ "mergeedge"; id; src; dst; label ] ->
      Some
        (Merge_edge
           {
             id = Const.of_string id;
             src = Const.of_string src;
             dst = Const.of_string dst;
             label = Const.of_string label;
           })
  | [ "nprop"; id; kv ] ->
      let prop, value = parse_prop ~line kv in
      Some (Set_node_prop { id = Const.of_string id; prop; value })
  | [ "eprop"; id; kv ] ->
      let prop, value = parse_prop ~line kv in
      Some (Set_edge_prop { id = Const.of_string id; prop; value })
  | [ "delnprop"; id; prop ] ->
      Some (Del_node_prop { id = Const.of_string id; prop = Const.of_string prop })
  | [ "deleprop"; id; prop ] ->
      Some (Del_edge_prop { id = Const.of_string id; prop = Const.of_string prop })
  | [ "delnode"; id ] -> Some (Del_node { id = Const.of_string id })
  | [ "deledge"; id ] -> Some (Del_edge { id = Const.of_string id })
  | keyword :: _ -> fail line "unknown or malformed operation %S" keyword
