(* Plain-text table rendering: the examples print their reproduced
   figures and tables as aligned ASCII tables. *)

type align = Left | Right

type t = { headers : string array; aligns : align array; mutable rows : string array list }

let create ?aligns headers =
  let headers = Array.of_list headers in
  let aligns =
    match aligns with
    | Some a ->
        let a = Array.of_list a in
        if Array.length a <> Array.length headers then invalid_arg "Table.create: aligns length";
        a
    | None -> Array.make (Array.length headers) Right
  in
  { headers; aligns; rows = [] }

let add_row t cells =
  let cells = Array.of_list cells in
  if Array.length cells <> Array.length t.headers then invalid_arg "Table.add_row: width mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
  end

let render t =
  let rows = List.rev t.rows in
  let columns = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  List.iter (fun row -> Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row) rows;
  let buf = Buffer.create 256 in
  let emit_row cells =
    for i = 0 to columns - 1 do
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (pad t.aligns.(i) widths.(i) cells.(i))
    done;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  for i = 0 to columns - 1 do
    if i > 0 then Buffer.add_string buf "  ";
    Buffer.add_string buf (String.make widths.(i) '-')
  done;
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)

(* Minimal ASCII line charts: a reproduced figure as rows of scaled
   bars, one series per row group. *)
let bar_chart ?(width = 50) series =
  let buf = Buffer.create 512 in
  let peak =
    List.fold_left
      (fun acc (_, points) -> List.fold_left (fun acc (_, v) -> Float.max acc v) acc points)
      0.0 series
  in
  if peak <= 0.0 then Buffer.add_string buf "(no data)\n"
  else
    List.iter
      (fun (name, points) ->
        Buffer.add_string buf (Printf.sprintf "%s\n" name);
        List.iter
          (fun (x, v) ->
            let bar = int_of_float (Float.round (v /. peak *. float_of_int width)) in
            Buffer.add_string buf
              (Printf.sprintf "  %-6s %s %g\n" x (String.make (max bar 0) '#') v))
          points)
      series;
  Buffer.contents buf
