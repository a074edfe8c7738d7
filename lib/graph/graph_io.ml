(* Plain-text serialization of property graphs (labeled graphs are the
   σ-free special case), plus Graphviz DOT export.

   Format (one declaration per line, '#' starts a comment):

     node <id> <label> [<prop>=<value> ...]
     edge <id> <src-id> <dst-id> <label> [<prop>=<value> ...]

   Tokens are whitespace-separated and parsed with {!Const.of_string};
   identifiers, labels and values therefore cannot contain whitespace or
   '='.  Edges may reference nodes declared later. *)

exception Parse_error of { file : string option; line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { file = None; line; message })) fmt

(* "file:line: message" when the file is known, "line N: message"
   otherwise — the rendering the CLI shows for malformed input. *)
let error_to_string ~file ~line ~message =
  match file with
  | Some f -> Printf.sprintf "%s:%d: %s" f line message
  | None -> Printf.sprintf "line %d: %s" line message

let split_tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let parse_props ~line tokens =
  List.map
    (fun token ->
      match String.index_opt token '=' with
      | Some i when i > 0 && i < String.length token - 1 ->
          ( Const.of_string (String.sub token 0 i),
            Const.of_string (String.sub token (i + 1) (String.length token - i - 1)) )
      | _ -> fail line "malformed property %S (expected prop=value)" token)
    tokens

type decl =
  | Node of Const.t * Const.t * (Const.t * Const.t) list
  | Edge of Const.t * Const.t * Const.t * Const.t * (Const.t * Const.t) list

let parse_line ~line text =
  let text = match String.index_opt text '#' with Some i -> String.sub text 0 i | None -> text in
  match split_tokens text with
  | [] -> None
  | "node" :: rest -> (
      match rest with
      | id :: label :: props ->
          Some (Node (Const.of_string id, Const.of_string label, parse_props ~line props))
      | _ -> fail line "node needs: node <id> <label> [props...]")
  | "edge" :: rest -> (
      match rest with
      | id :: src :: dst :: label :: props ->
          Some
            (Edge
               ( Const.of_string id,
                 Const.of_string src,
                 Const.of_string dst,
                 Const.of_string label,
                 parse_props ~line props ))
      | _ -> fail line "edge needs: edge <id> <src> <dst> <label> [props...]")
  | keyword :: _ -> fail line "unknown declaration %S" keyword

let property_graph_of_string text =
  (* Declarations keep their source line so second-pass errors (and the
     duplicate-id check) can point at the offending line even when the
     file has comments or blank lines. *)
  let decls = ref [] in
  List.iteri
    (fun i line ->
      match parse_line ~line:(i + 1) line with
      | Some d -> decls := (i + 1, d) :: !decls
      | None -> ())
    (String.split_on_char '\n' text);
  let decls = List.rev !decls in
  let b = Property_graph.Builder.create () in
  (* First pass: declare all nodes so edges can reference any of them.
     A re-declared node id is rejected here — the builder would silently
     merge the two declarations, which is never what a hand-written file
     means. *)
  let node_lines = Hashtbl.create 16 in
  let edge_lines = Hashtbl.create 16 in
  List.iter
    (fun (line, decl) ->
      match decl with
      | Node (id, label, props) ->
          (match Hashtbl.find_opt node_lines id with
          | Some first ->
              fail line "duplicate node id %s (first declared on line %d)" (Const.to_string id)
                first
          | None -> Hashtbl.add node_lines id line);
          let n = Property_graph.Builder.add_node b id ~label in
          List.iter (fun (p, v) -> Property_graph.Builder.set_node_property b n ~prop:p ~value:v) props
      | Edge (id, _, _, _, _) -> (
          match Hashtbl.find_opt edge_lines id with
          | Some first ->
              fail line "duplicate edge id %s (first declared on line %d)" (Const.to_string id)
                first
          | None -> Hashtbl.add edge_lines id line))
    decls;
  List.iter
    (fun (line, decl) ->
      match decl with
      | Node _ -> ()
      | Edge (id, src, dst, label, props) -> (
          match (Property_graph.Builder.find_node b src, Property_graph.Builder.find_node b dst) with
          | Some src, Some dst ->
              let e = Property_graph.Builder.add_edge b id ~src ~dst ~label in
              List.iter (fun (p, v) -> Property_graph.Builder.set_edge_property b e ~prop:p ~value:v) props
          | None, _ ->
              fail line "edge %s references undeclared source %s" (Const.to_string id)
                (Const.to_string src)
          | _, None ->
              fail line "edge %s references undeclared target %s" (Const.to_string id)
                (Const.to_string dst)))
    decls;
  Property_graph.Builder.freeze b

let render_props buf props =
  Array.iter
    (fun (p, v) -> Buffer.add_string buf (Printf.sprintf " %s=%s" (Const.to_string p) (Const.to_string v)))
    props

let property_graph_to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# gqkg property graph\n";
  for n = 0 to Property_graph.num_nodes g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "node %s %s"
         (Const.to_string (Property_graph.node_id g n))
         (Const.to_string (Property_graph.node_label g n)));
    render_props buf (Property_graph.node_properties g n);
    Buffer.add_char buf '\n'
  done;
  for e = 0 to Property_graph.num_edges g - 1 do
    let s, d = Property_graph.endpoints g e in
    Buffer.add_string buf
      (Printf.sprintf "edge %s %s %s %s"
         (Const.to_string (Property_graph.edge_id g e))
         (Const.to_string (Property_graph.node_id g s))
         (Const.to_string (Property_graph.node_id g d))
         (Const.to_string (Property_graph.edge_label g e)));
    render_props buf (Property_graph.edge_properties g e);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let labeled_graph_to_string g = property_graph_to_string (Property_graph.of_labeled g)

let load_property_graph path =
  let ic = open_in path in
  let text =
    try really_input_string ic (in_channel_length ic)
    with exn ->
      close_in ic;
      raise exn
  in
  close_in ic;
  try property_graph_of_string text
  with Parse_error { file = None; line; message } ->
    raise (Parse_error { file = Some path; line; message })

let save_property_graph path g =
  let oc = open_out path in
  output_string oc (property_graph_to_string g);
  close_out oc

(* Graphviz DOT export of the labeled view; properties become tooltips. *)
let to_dot ?(name = "gqkg") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for n = 0 to Property_graph.num_nodes g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  %S [label=%S];\n"
         (Const.to_string (Property_graph.node_id g n))
         (Printf.sprintf "%s:%s"
            (Const.to_string (Property_graph.node_id g n))
            (Const.to_string (Property_graph.node_label g n))))
  done;
  for e = 0 to Property_graph.num_edges g - 1 do
    let s, d = Property_graph.endpoints g e in
    Buffer.add_string buf
      (Printf.sprintf "  %S -> %S [label=%S];\n"
         (Const.to_string (Property_graph.node_id g s))
         (Const.to_string (Property_graph.node_id g d))
         (Const.to_string (Property_graph.edge_label g e)))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Order-insensitive canonical form: the node and edge declarations are
   sorted, so two property graphs with the same identifiers, labels,
   properties and incidences render identically regardless of insertion
   order.  This is the right equality after passing through set-based
   representations (e.g. RDF). *)
let canonical_string g =
  let lines = String.split_on_char '\n' (property_graph_to_string g) in
  let nodes = List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "node ") lines in
  let edges = List.filter (fun l -> String.length l > 5 && String.sub l 0 5 = "edge ") lines in
  String.concat "\n" (List.sort compare nodes @ List.sort compare edges) ^ "\n"
