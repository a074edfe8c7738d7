open Gqkg_graph
module Budget = Gqkg_util.Budget
module Governor = Gqkg_core.Governor
module Diagnostic = Gqkg_analysis.Diagnostic
module Regex_parser = Gqkg_automata.Regex_parser

type limits = { timeout_ms : int option; max_states : int option; max_steps : int option }

let no_limits = { timeout_ms = None; max_states = None; max_steps = None }

let budget ?timeout_ms ?max_states ?trip_after_checks l =
  let or_default v default = match v with Some _ -> v | None -> default in
  Budget.create
    ?timeout_ms:(or_default l.timeout_ms timeout_ms)
    ?max_states:(or_default l.max_states max_states)
    ?max_steps:l.max_steps ?trip_after_checks ()

type kind = Query of { max_length : int option } | Count of { length : int }
type 'q t = { q : 'q; kind : kind }

let max_count_length = 1024

type error =
  | Parse_error of { text : string; position : int; message : string }
  | Bad_length of int
  | Script_error of { line : int; message : string }

let error_message = function
  | Parse_error { position; message; _ } ->
      Printf.sprintf "parse error at position %d: %s" position message
  | Bad_length length ->
      Printf.sprintf "count length %d is outside 0..%d" length max_count_length
  | Script_error { message; _ } -> message

let parse text =
  match Regex_parser.parse text with
  | r -> Ok r
  | exception Regex_parser.Error { position; message } ->
      Error (Parse_error { text; position; message })

let validate { q; kind } =
  match kind with
  | Count { length } when length < 0 || length > max_count_length -> Error (Bad_length length)
  | Query _ | Count _ -> Result.map (fun q -> { q; kind }) (parse q)

type answer = Pairs of (int * int) list | Path_count of { length : int; count : float }

type response = {
  answer : answer;
  completeness : Budget.completeness;
  diagnostic : Diagnostic.t option;
}

let eval ?use_cache ~budget snap { q; kind } =
  let answer, completeness =
    match kind with
    | Query { max_length } ->
        let o = Governor.eval_pairs ?use_cache ~budget ?max_length snap q in
        (Pairs o.Budget.value, o.Budget.completeness)
    | Count { length } ->
        let o = Governor.count ~budget snap q ~length in
        (Path_count { length; count = o.Budget.value }, o.Budget.completeness)
  in
  let diagnostic =
    match completeness with
    | Budget.Complete -> None
    | Budget.Partial _ -> Diagnostic.of_budget budget
  in
  { answer; completeness; diagnostic }

type mutated = { applied : int; ops : int; commits : int; reused : int; rebuilt : int }

let mutate ?(tolerate_partial = false) ?commit_every ?(interrupted = fun () -> false) mgr lines =
  let last = List.length lines in
  match
    List.concat
      (List.mapi
         (fun i text ->
           let line = i + 1 in
           match Journal.op_of_line ~line text with
           | Some op -> [ (line, op) ]
           | None -> []
           | exception Journal.Replay_error _ when tolerate_partial && line = last -> [])
         lines)
  with
  | exception Journal.Replay_error { line; message; _ } -> Error (Script_error { line; message })
  | ops -> (
      let overlay = ref (Overlay.create (Epochs.base mgr)) in
      let applied = ref 0 and commits = ref 0 and reused = ref 0 and rebuilt = ref 0 in
      let commit () =
        if Overlay.size !overlay > 0 then begin
          let _, reuse = Epochs.commit mgr !overlay in
          incr commits;
          reused := !reused + List.length reuse.Overlay.reused;
          rebuilt := !rebuilt + List.length reuse.Overlay.rebuilt;
          overlay := Overlay.create (Epochs.base mgr)
        end
      in
      let rec apply = function
        | (line, op) :: rest when not (interrupted ()) ->
            Overlay.apply ~line !overlay op;
            incr applied;
            (match commit_every with
            | Some n when n > 0 && !applied mod n = 0 -> commit ()
            | _ -> ());
            apply rest
        | _ -> commit ()
      in
      match apply ops with
      | () ->
          Ok
            {
              applied = !applied;
              ops = List.length ops;
              commits = !commits;
              reused = !reused;
              rebuilt = !rebuilt;
            }
      | exception Journal.Replay_error { line; message; _ } ->
          Error (Script_error { line; message }))
