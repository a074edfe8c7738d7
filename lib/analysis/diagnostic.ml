(* Structured findings of the static query analyzer.  Each diagnostic
   carries a stable code (documented in DESIGN.md §"Static analysis"), a
   severity, the concrete-syntax subterm it is anchored to, and a
   human-readable message.  The CLI renders them either as text or as
   JSON (Gqkg_server.Jsonx.of_diagnostic); the engine itself only ever
   looks at the final verdict. *)

type severity = Error | Warning | Info

type t = { code : string; severity : severity; subterm : string; message : string }

let make ~code ~severity ~subterm ~message = { code; severity; subterm; message }

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let to_string d =
  if d.subterm = "" then Printf.sprintf "%s %s: %s" (severity_to_string d.severity) d.code d.message
  else
    Printf.sprintf "%s %s at `%s`: %s" (severity_to_string d.severity) d.code d.subterm d.message

(* Errors first, then warnings, then infos; stable within a class. *)
let rank = function Error -> 0 | Warning -> 1 | Info -> 2
let sort ds = List.stable_sort (fun a b -> compare (rank a.severity) (rank b.severity)) ds

(* --- Resource-governor diagnostics (GQ03x) ---------------------------

   Emitted when an evaluation returns a partial result because its
   budget tripped.  Warnings, not errors: the partial answer is sound
   (a subset of the unbudgeted answer), the caller just needs to know it
   may be incomplete.  The CLI maps their presence to exit code 3. *)

let budget_code = function
  | Gqkg_util.Budget.Timeout -> "GQ030"
  | Gqkg_util.Budget.State_limit -> "GQ031"
  | Gqkg_util.Budget.Step_limit -> "GQ032"
  | Gqkg_util.Budget.Injected -> "GQ033"
  | Gqkg_util.Budget.Cancelled -> "GQ034"

let of_budget b =
  match Gqkg_util.Budget.exhausted b with
  | None -> None
  | Some reason ->
      Some
        (make ~code:(budget_code reason) ~severity:Warning ~subterm:""
           ~message:
             (Printf.sprintf
                "evaluation stopped early (%s); the result is a sound subset of the full answer \
                 [%s]"
                (Gqkg_util.Budget.reason_to_string reason)
                (Gqkg_util.Budget.describe b)))

(* --- User-input diagnostics (GQ04x) ----------------------------------

   Structured reports for malformed user input (files, queries, CLI
   arguments): always errors, rendered by the CLI instead of a raw
   OCaml exception backtrace, with exit code 2. *)

let user_error ~code ~subterm ~message = make ~code ~severity:Error ~subterm ~message
