(* Tests for the serve daemon: the total JSON codec, admission-control
   semantics, wire-protocol fuzzing (malformed bytes always answer a
   structured GQ0xx JSON diagnostic and the connection recovers on the
   next well-formed line), graceful drain, and a fault-injected soak —
   N clients x M requests with random mutations, injected budget trips
   and injected connection drops — asserting no pinned-epoch leak, no
   deadlock, always-valid JSON, and cache-retention accounting after a
   full drain. *)

open Gqkg_graph
module Server = Gqkg_server.Server
module Jsonx = Gqkg_server.Jsonx
module Admission = Gqkg_server.Admission
module Semcache = Gqkg_core.Semcache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Jsonx: total codec ---------- *)

let rec json_gen depth =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Num (float_of_int i)) (int_range (-1_000_000) 1_000_000);
        (* every finite double, by bit pattern, and integers past 2^53 *)
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            Jsonx.Num (if Float.is_finite f then f else 0.1))
          int64;
        map (fun i -> Jsonx.Num (Int64.to_float i)) int64;
        map (fun s -> Jsonx.Str s) (small_string ~gen:printable);
      ]
  in
  if depth = 0 then leaf
  else
    oneof
      [
        leaf;
        map (fun xs -> Jsonx.Arr xs) (list_size (int_range 0 4) (json_gen (depth - 1)));
        map
          (fun kvs -> Jsonx.Obj kvs)
          (list_size (int_range 0 4)
             (pair (small_string ~gen:printable) (json_gen (depth - 1))));
      ]

let prop_jsonx_roundtrip =
  QCheck2.Test.make ~name:"Jsonx.parse inverts Jsonx.to_string" ~count:500 (json_gen 3)
    (fun v ->
      match Jsonx.parse (Jsonx.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let prop_jsonx_total =
  (* the parser is total: any byte string yields Ok or Error, never an
     exception — the wire depends on it *)
  QCheck2.Test.make ~name:"Jsonx.parse never raises" ~count:1000
    QCheck2.Gen.(small_string ~gen:(char_range '\000' '\255'))
    (fun s ->
      match Jsonx.parse s with Ok _ | Error _ -> true)

let test_jsonx_syntax () =
  let ok s = match Jsonx.parse s with Ok v -> Some v | Error _ -> None in
  checkb "object" true
    (ok {|{"a":1,"b":[true,null,"x"]}|}
    = Some
        (Jsonx.Obj
           [
             ("a", Jsonx.Num 1.0);
             ("b", Jsonx.Arr [ Jsonx.Bool true; Jsonx.Null; Jsonx.Str "x" ]);
           ]));
  checkb "escapes" true (ok {|"a\n\t\"\\A"|} = Some (Jsonx.Str "a\n\t\"\\A"));
  checkb "surrogate pair" true
    (ok {|"😀"|} = Some (Jsonx.Str "\xf0\x9f\x98\x80"));
  checkb "lone surrogate decodes to U+FFFD" true
    (ok {|"\ud800"|} = Some (Jsonx.Str "\xef\xbf\xbd"));
  checkb "trailing garbage rejected" true (ok {|{"a":1} x|} = None);
  checkb "truncated rejected" true (ok {|{"a":|} = None);
  checkb "bare newline in string rejected" true (ok "\"a\nb\"" = None);
  checkb "deep nesting rejected" true
    (ok (String.concat "" (List.init 100 (fun _ -> "[")) ^ "1") = None);
  checkb "integers print clean" true (Jsonx.to_string (Jsonx.Num 42.0) = "42");
  checkb "2^61 round-trips" true
    (ok (Jsonx.to_string (Jsonx.Num (ldexp 1.0 61))) = Some (Jsonx.Num (ldexp 1.0 61)));
  checkb "non-finite prints null" true
    (Jsonx.to_string (Jsonx.Arr [ Jsonx.Num infinity; Jsonx.Num neg_infinity; Jsonx.Num nan ])
    = "[null,null,null]")

(* ---------- Pages: blitted from the name table, byte for byte ---------- *)

(* Node ids that need escaping (quote, backslash, control bytes,
   multi-byte UTF-8) and numeric-looking ids whose name is not their
   text (007 is the int 7). *)
let node_id_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ "007"; "0"; "-12"; "1.50" ];
        map (String.concat "")
          (list_size (int_range 1 4)
             (oneofl
                [ "a"; "Z"; "7"; "\""; "\\"; "\t"; "\n"; "\001"; "\031"; "\127";
                  "\xc3\xa9"; "\xe2\x82\xac"; " " ]));
      ])

let page_gen =
  QCheck2.Gen.(
    list_size (int_range 1 12) node_id_gen >>= fun ids ->
    let n = List.length ids in
    list_size (int_range 0 30) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun pairs ->
    quad (int_range 0 (List.length pairs + 1))
      (opt (json_gen 2))
      (map (fun i -> float_of_int i /. 8.) (int_bound 10_000))
      (opt (small_string ~gen:(char_range '\000' '\255')))
    >|= fun (limit, id, elapsed, partial) -> (ids, pairs, limit, id, elapsed, partial))

let print_page (ids, pairs, limit, id, elapsed, partial) =
  Printf.sprintf "ids=[%s] pairs=[%s] limit=%d id=%s elapsed=%g partial=%s"
    (String.concat "; " (List.map (Printf.sprintf "%S") ids))
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) pairs))
    limit
    (Option.fold ~none:"-" ~some:Jsonx.to_string id)
    elapsed
    (Option.fold ~none:"-" ~some:(Printf.sprintf "%S") partial)

(* Distinct ids become the nodes of a snapshot, in order, and a page
   names them by that snapshot's [node_name]. *)
let snapshot_of_ids ids =
  let ids = List.sort_uniq Const.compare (List.map Const.of_string ids) in
  Snapshot.of_property
    (Journal.replay_ops (List.map (fun id -> Journal.Add_node { id; label = Const.str "v" }) ids))

let prop_page_bytes =
  QCheck2.Test.make ~name:"a page frame is byte-identical to its Jsonx tree" ~count:300
    ~print:print_page page_gen (fun (ids, pairs, limit, id, elapsed, partial) ->
      let snap = snapshot_of_ids ids in
      (* equal ids (007 and 7) merge, so there may be fewer nodes than ids *)
      let n = snap.Snapshot.num_nodes in
      let pairs = List.map (fun (a, b) -> (a mod n, b mod n)) pairs in
      let name v = Jsonx.Str (snap.Snapshot.node_name v) in
      let id = Option.fold ~none:[] ~some:(fun v -> [ ("id", v) ]) id in
      let head =
        [ ("ok", Jsonx.Bool true); ("op", Jsonx.Str "query") ]
        @ id
        @ [ ("epoch", Jsonx.int snap.Snapshot.epoch) ]
      in
      let completeness =
        match partial with
        | None -> [ ("complete", Jsonx.Bool true) ]
        | Some subterm ->
            let d =
              Gqkg_analysis.Diagnostic.make ~code:"GQ032" ~severity:Warning ~subterm
                ~message:"step limit reached"
            in
            [ ("complete", Jsonx.Bool false); ("diagnostic", Jsonx.of_diagnostic d) ]
      in
      let tail = ("elapsed_ms", Jsonx.Num elapsed) :: completeness in
      let total = List.length pairs in
      let shown = List.filteri (fun i _ -> i < limit) pairs in
      let reference =
        Jsonx.to_string
          (Jsonx.Obj
             (head
             @ [
                 ("total", Jsonx.int total);
                 ("truncated", Jsonx.Bool (total > limit));
                 ("pairs", Jsonx.Arr (List.map (fun (a, b) -> Jsonx.Arr [ name a; name b ]) shown));
               ]
             @ tail))
        ^ "\n"
      in
      let frame = Jsonx.page_frame (Jsonx.names snap) ~head ~limit pairs ~tail in
      frame = reference || QCheck2.Test.fail_reportf "frame:     %S\nreference: %S" frame reference)

(* [page_frame]'s contract, from the Jsonx tree. *)
let page_reference (snap : Snapshot.t) ~head ~limit pairs ~tail =
  let name v = Jsonx.Str (snap.Snapshot.node_name v) in
  let total = List.length pairs in
  let shown = List.filteri (fun i _ -> i < limit) pairs in
  Jsonx.to_string
    (Jsonx.Obj
       (head
       @ [
           ("total", Jsonx.int total);
           ("truncated", Jsonx.Bool (total > limit));
           ("pairs", Jsonx.Arr (List.map (fun (a, b) -> Jsonx.Arr [ name a; name b ]) shown));
         ]
       @ tail))
  ^ "\n"

(* Random answers, served as the daemon serves them: the pairs become
   [e] edges, and the Governor answers [e] under a budget that may trip.
   A Complete answer is the cache entry itself.  Its second frame
   copies the cached body (the same string), and another shown count
   replaces that body; every frame is byte-identical to the Jsonx
   reference.  A Partial answer's frame is as exact, and no entry is
   left for it. *)
let prop_answer_pages =
  QCheck2.Test.make ~name:"a cached answer's page frames are byte-identical to their Jsonx trees"
    ~count:300 ~print:print_page page_gen (fun (ids, pairs, limit, id, elapsed, partial) ->
      let consts = List.sort_uniq Const.compare (List.map Const.of_string ids) in
      let node i = Const.to_string (List.nth consts (i mod List.length consts)) in
      let snap =
        Snapshot.of_property
          (Journal.replay_ops
             (List.map (fun id -> Journal.Add_node { id; label = Const.str "v" }) consts
             @ List.mapi
                 (fun i (a, b) ->
                   Journal.Add_edge
                     {
                       id = Const.str (Printf.sprintf "edge %d" i);
                       src = Const.of_string (node a);
                       dst = Const.of_string (node b);
                       label = Const.str "e";
                     })
                 pairs))
      in
      let r = Gqkg_automata.Regex_parser.parse "e" in
      let budget =
        match partial with
        | Some s -> Gqkg_util.Budget.create ~trip_after_checks:(String.length s) ()
        | None -> Gqkg_util.Budget.create ()
      in
      let o = Gqkg_core.Governor.eval_answer ~use_cache:true ~budget snap r in
      let a = o.Gqkg_util.Budget.value in
      let head =
        [ ("ok", Jsonx.Bool true) ]
        @ Option.fold ~none:[] ~some:(fun v -> [ ("id", v) ]) id
        @ [ ("epoch", Jsonx.int snap.Snapshot.epoch) ]
      in
      let tail = [ ("elapsed_ms", Jsonx.Num elapsed) ] in
      let names = Jsonx.names snap and total = Gqkg_core.Answer.length a in
      let exact limit =
        let frame = Jsonx.answer_frame names ~head ~limit a ~tail in
        let reference = page_reference snap ~head ~limit (Gqkg_core.Answer.to_pairs a) ~tail in
        frame = reference
        || QCheck2.Test.fail_reportf "frame:     %S\nreference: %S" frame reference
      in
      let body shown = Jsonx.answer_body names a ~shown in
      let shown = min total limit in
      let other = (shown + 1) mod (total + 1) in
      let cached =
        Option.bind (Gqkg_core.Planner.semantic_key snap r) (fun key ->
            Semcache.find_answer snap ~key)
      in
      match (o.Gqkg_util.Budget.completeness, cached) with
      | Gqkg_util.Budget.Complete, Some entry ->
          entry == a && exact limit && exact limit
          && body shown == body shown
          && (total = 0 || (exact other && body other == body other))
      (* no [e] edge: statically empty, answered without a key *)
      | Gqkg_util.Budget.Complete, None -> pairs = [] && exact limit
      | Gqkg_util.Budget.Partial _, None -> exact limit
      | Gqkg_util.Budget.Partial _, Some _ ->
          QCheck2.Test.fail_report "a Partial answer was cached")

(* Four domains serve frames of one fresh cached answer at once, and
   build its join relation.  Every frame is exact, and afterwards the
   answer holds one page and one relation: every later call returns
   the same ones. *)
let test_answer_state_race () =
  let snap =
    Snapshot.of_labeled
      (Gqkg_workload.Gen_graph.random_labeled (Gqkg_util.Splitmix.create 5) ~nodes:300
         ~edges:900 ~node_labels:[ "a" ] ~edge_labels:[ "x"; "y" ])
  in
  let r = Gqkg_automata.Regex_parser.parse "x/y" in
  let budget = Gqkg_util.Budget.unlimited in
  let a = (Gqkg_core.Governor.eval_answer ~budget snap r).Gqkg_util.Budget.value in
  let total = Gqkg_core.Answer.length a in
  checkb "a cached answer of many pairs" true
    (total > 100
    && (Gqkg_core.Governor.eval_answer ~budget snap r).Gqkg_util.Budget.value == a);
  let names = Jsonx.names snap and head = [ ("ok", Jsonx.Bool true) ] and limit = total / 2 in
  let tail = [ ("complete", Jsonx.Bool true) ] in
  let reference = page_reference snap ~head ~limit (Gqkg_core.Answer.to_pairs a) ~tail in
  let serve () =
    let frames = List.init 20 (fun _ -> Jsonx.answer_frame names ~head ~limit a ~tail) in
    (frames, Gqkg_core.Join.relation_of_answer a)
  in
  let served = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn serve)) in
  let relation = Gqkg_core.Join.relation_of_answer a in
  List.iter
    (fun (frames, rel) ->
      checkb "frames = reference" true (List.for_all (String.equal reference) frames);
      checkb "one relation" true (rel == relation))
    served;
  checkb "one page" true
    (Jsonx.answer_body names a ~shown:limit == Jsonx.answer_body names a ~shown:limit)

(* ---------- Admission: bounded fair queue ---------- *)

let test_admission_caps () =
  let q = Admission.create ~depth:4 ~per_client:2 in
  checkb "c1 a" true (Admission.submit q ~client:1 "1a" = Admission.Accepted);
  checkb "c1 b" true (Admission.submit q ~client:1 "1b" = Admission.Accepted);
  checkb "c1 over per-client" true (Admission.submit q ~client:1 "1c" = Admission.Shed_client);
  checkb "c2 a" true (Admission.submit q ~client:2 "2a" = Admission.Accepted);
  checkb "c3 a" true (Admission.submit q ~client:3 "3a" = Admission.Accepted);
  checkb "global full" true (Admission.submit q ~client:4 "4a" = Admission.Shed_full);
  checki "depth" 4 (Admission.depth q);
  checki "peak" 4 (Admission.peak q)

let test_admission_fairness () =
  let q = Admission.create ~depth:16 ~per_client:8 in
  (* client 1 pipelines four requests before clients 2 and 3 submit
     one each; round-robin still interleaves them *)
  List.iter (fun j -> ignore (Admission.submit q ~client:1 j)) [ "1a"; "1b"; "1c"; "1d" ];
  ignore (Admission.submit q ~client:2 "2a");
  ignore (Admission.submit q ~client:3 "3a");
  let order = List.init 6 (fun _ -> Option.get (Admission.take q)) in
  Alcotest.(check (list string))
    "round-robin interleave"
    [ "1a"; "2a"; "3a"; "1b"; "1c"; "1d" ]
    order

let test_admission_drain () =
  let q = Admission.create ~depth:8 ~per_client:8 in
  ignore (Admission.submit q ~client:1 "1a");
  Admission.drain q;
  checkb "refused while draining" true (Admission.submit q ~client:2 "2a" = Admission.Draining);
  checkb "queued work still served" true (Admission.take q = Some "1a");
  checkb "then exit signal" true (Admission.take q = None)

let test_admission_forget () =
  let q = Admission.create ~depth:8 ~per_client:8 in
  ignore (Admission.submit q ~client:1 "1a");
  ignore (Admission.submit q ~client:1 "1b");
  ignore (Admission.submit q ~client:2 "2a");
  checki "dropped" 2 (Admission.forget_client q ~client:1);
  checki "depth after" 1 (Admission.depth q);
  checkb "other client intact" true (Admission.take q = Some "2a")

(* ---------- Server fixture ---------- *)

let make_mgr () =
  let rng = Gqkg_util.Splitmix.create 42 in
  let pg = Gqkg_workload.Contact_network.scaled rng ~scale:1 in
  Epochs.create (Overlay.base_of_property pg)

let start_server config =
  let mgr = make_mgr () in
  (mgr, Server.start ~port:0 ~config mgr)

(* A tiny synchronous client.  The receive timeout doubles as the
   suite's deadlock detector: a hung server turns into a test failure
   instead of a hung test run. *)
type client = { fd : Unix.file_descr; mutable buf : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  { fd; buf = "" }

let close c = try Unix.close c.fd with _ -> ()

let send c line =
  let s = line ^ "\n" in
  ignore (Unix.write c.fd (Bytes.of_string s) 0 (String.length s))

exception Closed

let recv_line c =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match String.index_opt c.buf '\n' with
    | Some i ->
        let line = String.sub c.buf 0 i in
        c.buf <- String.sub c.buf (i + 1) (String.length c.buf - i - 1);
        line
    | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise Closed
        | n ->
            c.buf <- c.buf ^ Bytes.sub_string chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "server did not answer within 10s (deadlock?)"
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed)
  in
  go ()

let rpc c line =
  send c line;
  match Jsonx.parse (recv_line c) with
  | Ok v -> v
  | Error e -> Alcotest.fail ("response is not valid JSON: " ^ e)

let obj_bool name v =
  match Option.bind (Jsonx.member name v) (function Jsonx.Bool b -> Some b | _ -> None) with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "response lacks boolean %S" name)

let obj_str name v =
  match Option.bind (Jsonx.member name v) Jsonx.str with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "response lacks string %S" name)

let obj_num name v =
  match Option.bind (Jsonx.member name v) Jsonx.num with
  | Some f -> f
  | None -> Alcotest.fail (Printf.sprintf "response lacks number %S" name)

(* ---------- Protocol basics ---------- *)

let test_protocol_basics () =
  let mgr, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let pong = rpc c {|{"op":"ping","id":7}|} in
  checkb "pong ok" true (obj_bool "ok" pong);
  checkb "id echoed" true (Jsonx.member "id" pong = Some (Jsonx.Num 7.0));
  let q = rpc c {|{"op":"query","q":"rides"}|} in
  checkb "query ok" true (obj_bool "ok" q);
  checkb "query complete" true (obj_bool "complete" q);
  checkb "has pairs" true (obj_num "total" q > 0.0);
  let m = rpc c {|{"op":"mutate","ops":["node zz9 person","edge ez9 zz9 b0 rides"]}|} in
  checkb "mutate ok" true (obj_bool "ok" m);
  checkb "epoch advanced" true (obj_num "epoch" m = 1.0);
  let q2 = rpc c {|{"op":"query","q":"rides"}|} in
  checkb "sees new epoch" true (obj_num "epoch" q2 = 1.0);
  checkb "one more pair" true (obj_num "total" q2 = obj_num "total" q +. 1.0);
  (* atomic mutate: a bad op aborts the whole request, epoch unchanged *)
  let bad = rpc c {|{"op":"mutate","ops":["node ok1 person","edge e_bad ok1 missing rides"]}|} in
  checkb "bad mutate refused" false (obj_bool "ok" bad);
  checkb "GQ048" true (obj_str "code" bad = "GQ048");
  checkb "epoch unchanged" true (obj_num "epoch" (rpc c {|{"op":"ping"}|} |> fun _ ->
    rpc c {|{"op":"query","q":"rides"}|}) = 1.0);
  (* two requests in one write: two responses, in order *)
  send c {|{"op":"ping","id":1}|};
  send c {|{"op":"ping","id":2}|};
  let r1 = Jsonx.parse (recv_line c) and r2 = Jsonx.parse (recv_line c) in
  checkb "pipelined in order" true
    (match (r1, r2) with
    | Ok a, Ok b ->
        Jsonx.member "id" a = Some (Jsonx.Num 1.0)
        && Jsonx.member "id" b = Some (Jsonx.Num 2.0)
    | _ -> false);
  ignore mgr

(* A commit that deletes a low-index node shifts every later node id:
   the new epoch's first page must name its pairs by that epoch's
   snapshot, never by a name table of the epoch before. *)
let test_page_per_epoch () =
  let mgr, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let page () = rpc c {|{"op":"query","q":"rides","limit":100000}|} in
  let r0 = page () (* builds the first epoch's name table *) in
  let snap0 = Epochs.snapshot mgr in
  let odd = "q\"u\\o\t\xc3\xa9" in
  let mutate =
    Jsonx.Obj
      [
        ("op", Jsonx.Str "mutate");
        ( "ops",
          Jsonx.Arr
            [
              Jsonx.Str ("delnode " ^ snap0.Snapshot.node_name 0);
              Jsonx.Str ("node " ^ odd ^ " person");
              Jsonx.Str ("edge fresh1 " ^ odd ^ " b0 rides");
            ] );
      ]
  in
  checkb "mutate ok" true (obj_bool "ok" (rpc c (Jsonx.to_string mutate)));
  let r1 = page () in
  let snap1 = Epochs.snapshot mgr in
  checkb "next epoch" true (obj_num "epoch" r1 = obj_num "epoch" r0 +. 1.0);
  checkb "whole answer on the page" false (obj_bool "truncated" r1);
  let served =
    match Option.bind (Jsonx.member "pairs" r1) Jsonx.arr with
    | Some items ->
        List.map
          (function
            | Jsonx.Arr [ Jsonx.Str a; Jsonx.Str b ] -> (a, b)
            | _ -> Alcotest.fail "a pair is not two strings")
          items
    | None -> Alcotest.fail "no pairs"
  in
  let expected =
    Gqkg_core.Rpq.eval_pairs snap1 (Gqkg_automata.Regex_parser.parse "rides")
    |> List.map (fun (a, b) -> (snap1.Snapshot.node_name a, snap1.Snapshot.node_name b))
  in
  checkb "page names pairs by the new epoch" true
    (List.sort compare served = List.sort compare expected);
  checkb "escaped id served" true (List.mem (odd, "b0") served)

let test_budget_degradation () =
  (* a starved per-request budget degrades to a sound partial answer
     with a GQ03x diagnostic — never an error, never a hang *)
  let mgr, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let r = rpc c {|{"op":"query","q":"(rides/-rides)*","max_steps":3}|} in
  checkb "partial is ok" true (obj_bool "ok" r);
  checkb "incomplete" false (obj_bool "complete" r);
  let diag = match Jsonx.member "diagnostic" r with Some d -> d | None -> Alcotest.fail "no diagnostic" in
  checkb "GQ03x" true
    (let code = obj_str "code" diag in
     String.length code = 5 && String.sub code 0 4 = "GQ03");
  ignore mgr

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_mutate_non_string_op () =
  (* a non-string script line refuses the whole request with GQ062,
     naming the element's index in the array as sent, and commits
     nothing — neither the string ops around it nor an epoch *)
  let mgr, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let epoch0 = (Epochs.snapshot mgr).Snapshot.epoch in
  let refused line index =
    let r = rpc c line in
    checkb "refused" false (obj_bool "ok" r);
    checkb "GQ062" true (obj_str "code" r = "GQ062");
    checkb ("names " ^ index) true (contains ~sub:index (obj_str "message" r))
  in
  refused {|{"op":"mutate","ops":["node nsa person", 42]}|} "ops[1]";
  refused {|{"op":"mutate","ops":[null, "edge nse1 nsa missing rides"]}|} "ops[0]";
  refused
    {|{"op":"mutate","ops":["node nsb person", {"line":"node nsc person"}, "node nsd person"]}|}
    "ops[1]";
  checki "no epoch committed" epoch0 (Epochs.snapshot mgr).Snapshot.epoch;
  let m = rpc c {|{"op":"mutate","ops":["node nsa person"]}|} in
  checkb "all-string ops still commit" true (obj_bool "ok" m);
  checkb "new epoch" true (obj_num "epoch" m > float_of_int epoch0)

(* ---------- count op ---------- *)

let test_count_op () =
  (* the served count equals Count.count on the same snapshot; a
     starved budget degrades to a partial; a missing or unparsable q is
     refused with its structured code *)
  let mgr, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let snap = Epochs.snapshot mgr in
  let q = "(contact + rides + rides^-)*" in
  let r = rpc c (Printf.sprintf {|{"op":"count","q":"%s","length":4}|} q) in
  checkb "count ok" true (obj_bool "ok" r);
  checkb "count complete" true (obj_bool "complete" r);
  checkb "epoch echoed" true (obj_num "epoch" r = float_of_int snap.Snapshot.epoch);
  checkb "length echoed" true (obj_num "length" r = 4.0);
  let expected =
    Gqkg_core.Count.count snap (Gqkg_automata.Regex_parser.parse q) ~length:4
  in
  checkb "count = Count.count" true (expected > 0.0 && obj_num "count" r = expected);
  let p = rpc c {|{"op":"count","q":"(contact/contact^-)*","length":6,"max_steps":1}|} in
  checkb "starved count is ok" true (obj_bool "ok" p);
  checkb "starved count incomplete" false (obj_bool "complete" p);
  let diag = match Jsonx.member "diagnostic" p with Some d -> d | None -> Alcotest.fail "no diagnostic" in
  checkb "GQ03x" true
    (let code = obj_str "code" diag in
     String.length code = 5 && String.sub code 0 4 = "GQ03");
  let missing = rpc c {|{"op":"count","length":2}|} in
  checkb "missing q refused" false (obj_bool "ok" missing);
  checkb "missing q GQ062" true (obj_str "code" missing = "GQ062");
  let bad = rpc c {|{"op":"count","q":"rides/(","length":2}|} in
  checkb "bad q refused" false (obj_bool "ok" bad);
  checkb "bad q GQ042" true (obj_str "code" bad = "GQ042");
  (* a count past the double range answers null, and [rpc]'s parse
     proves the reply is still JSON *)
  let big = rpc c {|{"op":"count","q":"(contact + rides + rides^-)*","length":1024}|} in
  checkb "overflowing count ok" true (obj_bool "ok" big);
  checkb "overflowing count is null" true (Jsonx.member "count" big = Some Jsonx.Null)

let test_count_length_bound () =
  (* a length far past the bound is refused before any allocation (the
     table would be (length+1) x states x 8 bytes), and the connection
     keeps serving *)
  let _, srv = start_server Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let r = rpc c {|{"op":"count","q":"(contact + rides + rides^-)*","length":2000000}|} in
  checkb "oversize length refused" false (obj_bool "ok" r);
  checkb "GQ062" true (obj_str "code" r = "GQ062");
  let neg = rpc c {|{"op":"count","q":"(contact + rides + rides^-)*","length":-5}|} in
  checkb "negative length refused" false (obj_bool "ok" neg);
  checkb "negative GQ062" true (obj_str "code" neg = "GQ062");
  (* a negative path bound would still admit zero-length paths *)
  let unbounded = rpc c {|{"op":"query","q":"?person","max_length":-1}|} in
  checkb "negative max_length refused" false (obj_bool "ok" unbounded);
  checkb "negative max_length GQ062" true (obj_str "code" unbounded = "GQ062");
  checkb "ping after" true (obj_bool "ok" (rpc c {|{"op":"ping"}|}))

(* ---------- CLI vs daemon ---------- *)

(* Both surfaces run one request pipeline, so the same request sent to
   the gqkg binary and to an in-process daemon over the same graph must
   get the same pairs or count, the same completeness (exit 3 <->
   complete:false) and the same GQ code.  A bad count length is the one
   refusal the surfaces name differently by design: GQ046 (bad
   argument) on the CLI, GQ062 (malformed request) on the wire. *)

type outcome =
  | Answer of string list * string option  (** sorted answer lines, GQ03x code if partial *)
  | Refused of string

let pp_outcome = function
  | Answer (lines, code) ->
      Printf.sprintf "answer [%s] %s" (String.concat "; " lines)
        (Option.value code ~default:"complete")
  | Refused code -> "refused " ^ code

let diag_code text =
  match Jsonx.parse (String.trim text) with
  | Ok d -> Option.bind (Jsonx.member "code" d) Jsonx.str
  | Error _ -> None

let count_line = function
  | Some c when Float.is_finite c -> Printf.sprintf "count %.17g" c
  | _ -> "count out of range"

(* The CLI built beside this test binary, wherever the test runs from. *)
let gqkg_exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/gqkg.exe"

let cli_outcome graph (verb, text, opts) =
  let out = Filename.temp_file "gqkg" ".out" and err = Filename.temp_file "gqkg" ".err" in
  let code =
    Sys.command
      (Filename.quote_command gqkg_exe ~stdout:out ~stderr:err
         ((verb :: opts) @ [ "--"; graph; text ]))
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' stdout) in
  let lines =
    match lines with
    | [ l ] when String.length l > 7 && String.sub l 0 7 = "exact: " ->
        [ count_line (float_of_string_opt (String.sub l 7 (String.length l - 7))) ]
    | _ -> List.sort compare lines
  in
  match (code, diag_code stderr) with
  | 0, _ -> Answer (lines, None)
  | 3, (Some _ as c) -> Answer (lines, c)
  | 2, Some "GQ046" -> Refused "GQ062"
  | 2, Some c -> Refused c
  | _ -> Alcotest.fail (Printf.sprintf "gqkg %s exited %d: %s" verb code stderr)

let wire_outcome c line =
  let r = rpc c line in
  if not (obj_bool "ok" r) then Refused (obj_str "code" r)
  else
    let lines =
      match Jsonx.member "pairs" r with
      | Some (Jsonx.Arr ps) ->
          List.sort compare
            (List.map
               (function
                 | Jsonx.Arr [ Jsonx.Str a; Jsonx.Str b ] -> a ^ "\t" ^ b
                 | _ -> Alcotest.fail "malformed pair")
               ps)
      | _ -> [ count_line (Option.bind (Jsonx.member "count" r) Jsonx.num) ]
    in
    let code =
      if obj_bool "complete" r then None
      else
        Option.bind (Jsonx.member "diagnostic" r) (fun d ->
            Option.bind (Jsonx.member "code" d) Jsonx.str)
    in
    Answer (lines, code)

(* A sample: a small random graph, one regex, and the requests drawn
   for it — a possibly starved query first (a budgeted query may be
   served from the daemon's result cache, so none may run after a
   complete answer to an equivalent query is cached), then an
   unbudgeted query, counts in and out of range, and unparsable text. *)
let diff_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 2 8 in
    let* edges = int_range 1 16 in
    let* starve = opt (pair bool (int_range 0 15)) in
    let* max_length = opt (int_range 0 4) in
    let* length = oneof [ int_range 0 6; oneofl [ -5; -1; 1025; 2_000_000 ] ] in
    let* junk = oneofl [ "(x"; "x/("; "x +"; "["; ")"; "x^" ] in
    return (seed, nodes, edges, starve, max_length, length, junk))

let prop_cli_daemon_agree =
  QCheck2.Test.make ~name:"CLI and daemon agree on answers, completeness and codes" ~count:50
    diff_gen
    (fun (seed, nodes, edges, starve, max_length, length, junk) ->
      let rng = Gqkg_util.Splitmix.create seed in
      let lg =
        Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b" ]
          ~edge_labels:[ "x"; "y" ]
      in
      let graph = Filename.temp_file "gqkg" ".pg" in
      Graph_io.save_property_graph graph (Property_graph.of_labeled lg);
      let params =
        {
          Gqkg_oracle.Gen_regex.default with
          node_labels = [ "a"; "b" ];
          edge_labels = [ "x"; "y" ];
        }
      in
      let regex = Gqkg_oracle.Gen_regex.generate ~params rng in
      let q = Gqkg_automata.Regex.to_string ~top:true regex in
      (* one request as argv and as a wire frame; [fields] are (CLI
         flag, wire field, value) triples *)
      let request op text fields =
        ( (op, text, List.map (fun (flag, _, v) -> Printf.sprintf "--%s=%d" flag v) fields),
          Jsonx.to_string
            (Jsonx.Obj
               (("op", Jsonx.Str op) :: ("q", Jsonx.Str text)
               :: List.map (fun (_, field, v) -> (field, Jsonx.int v)) fields)) )
      in
      let bounded =
        List.map (fun l -> ("max-length", "max_length", l)) (Option.to_list max_length)
      in
      let starved =
        match starve with
        | Some (true, k) -> [ ("max-steps", "max_steps", k) ]
        | Some (false, k) -> [ ("max-states", "max_states", k) ]
        | None -> []
      in
      let query text fields = request "query" text (bounded @ fields) in
      let count text = request "count" text [ ("length", "length", length) ] in
      let requests = [ query q starved; query q []; count q; query junk []; count junk ] in
      let mgr = Epochs.create (Overlay.base_of_property (Graph_io.load_property_graph graph)) in
      let srv = Server.start ~port:0 ~config:Server.default_config mgr in
      let c = connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () ->
          close c;
          Server.stop srv;
          Sys.remove graph)
        (fun () ->
          List.for_all
            (fun (cli, wire) ->
              let a = cli_outcome graph cli and b = wire_outcome c wire in
              a = b
              || QCheck2.Test.fail_reportf "%s\nCLI:  %s\nwire: %s" wire (pp_outcome a)
                   (pp_outcome b))
            requests))

(* The argument checks outside that pipeline: a path length for sample
   or enumerate outside count's 0..1024, an FPRAS epsilon outside (0,1)
   and a generator scale below 1 are each a GQ046 with exit 2 and
   nothing on stdout, never an uncaught exception; so is a negative
   [--max-length] for query and for match, and a serve idle timeout
   below 1 ms (a receive timeout of 0 would never reap). *)
let test_cli_bad_arguments () =
  let graph = Filename.temp_file "gqkg" ".pg" and err = Filename.temp_file "gqkg" ".err" in
  let out = Filename.temp_file "gqkg" ".out" in
  Graph_io.save_property_graph graph (Figure2.property ());
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ graph; err; out ])
    (fun () ->
      List.iter
        (fun argv ->
          let name = String.concat " " argv in
          let code =
            Sys.command (Filename.quote_command gqkg_exe ~stdout:out ~stderr:err argv)
          in
          let read f = In_channel.with_open_bin f In_channel.input_all in
          checki name 2 code;
          checkb (name ^ ": GQ046") true (diag_code (read err) = Some "GQ046");
          checkb (name ^ ": no output") true (read out = ""))
        [
          [ "count"; graph; "rides"; "--length=1"; "--epsilon=2" ];
          [ "count"; graph; "rides"; "--length=1"; "--epsilon=0" ];
          [ "sample"; graph; "rides"; "--length=-2" ];
          [ "sample"; graph; "rides"; "--length=1025" ];
          [ "enumerate"; graph; "rides"; "--length=-1" ];
          [ "generate"; "--scale=-1"; out ];
          [ "generate"; "--scale=0"; out ];
          [ "query"; graph; "?person"; "--max-length=-1" ];
          [ "match"; graph; "SELECT x WHERE (x:person)"; "--max-length=-1" ];
          [ "serve"; graph; "--port=0"; "--idle-timeout-ms=0" ];
        ])

(* ---------- Wire-protocol fuzz ---------- *)

(* Shared across QCheck samples: one server, one connection.  Each
   malformed line must produce exactly one structured error response,
   and the connection must stay usable — which the final ping of every
   sample proves. *)
let fuzz_env = lazy (start_server Server.default_config)

let fuzz_line_gen =
  QCheck2.Gen.(
    small_string ~gen:(char_range '\001' '\255')
    |> map (fun s ->
           String.map (fun ch -> if ch = '\n' || ch = '\r' then '?' else ch) s))

let prop_wire_fuzz =
  QCheck2.Test.make ~name:"malformed wire lines answer GQ0xx and recover" ~count:200
    fuzz_line_gen (fun line ->
      let _, srv = Lazy.force fuzz_env in
      let c = connect (Server.port srv) in
      Fun.protect ~finally:(fun () -> close c) @@ fun () ->
      let responses =
        if String.trim line = "" then true (* blank lines are ignored *)
        else
          let r = rpc c line in
          (* any answer must be structured: ok:false carries a GQ0xx
             code (random bytes are never a valid request) *)
          obj_bool "ok" r = false
          &&
          let code = obj_str "code" r in
          String.length code = 5 && String.sub code 0 3 = "GQ0"
      in
      (* recovery: the very next well-formed request succeeds *)
      responses && obj_bool "ok" (rpc c {|{"op":"ping"}|}))

let test_torn_request () =
  let _, srv = Lazy.force fuzz_env in
  (* a connection dying mid-frame must not wedge the server *)
  let c1 = connect (Server.port srv) in
  ignore (Unix.write c1.fd (Bytes.of_string {|{"op":"ping"|}) 0 12);
  close c1;
  let c2 = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c2) @@ fun () ->
  checkb "server unaffected by torn frame" true (obj_bool "ok" (rpc c2 {|{"op":"ping"}|}))

let test_oversized_line () =
  (* an endless line (no newline) must cost O(chunk) server memory, not
     accumulate: the discard path clears the buffer as data arrives.
     Buffer.clear keeps capacity, so a leaking server would still hold
     the high-water mark after recovery — measurable via live words. *)
  let config = { Server.default_config with max_line_bytes = 1024 } in
  let _, srv = start_server config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  checkb "warm-up ping" true (obj_bool "ok" (rpc c {|{"op":"ping"}|}));
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let chunk = Bytes.make 4096 'x' in
  let total = 8 * 1024 * 1024 in
  for _ = 1 to total / Bytes.length chunk do
    ignore (Unix.write c.fd chunk 0 (Bytes.length chunk))
  done;
  (* terminate the monster line: exactly one GQ062, then full recovery *)
  ignore (Unix.write c.fd (Bytes.of_string "\n") 0 1);
  let r = Jsonx.parse (recv_line c) in
  checkb "oversized answers GQ062" true
    (match r with Ok v -> obj_str "code" v = "GQ062" | Error _ -> false);
  (* the pong is the sync point: every streamed byte has been consumed *)
  checkb "recovers after discard" true (obj_bool "ok" (rpc c {|{"op":"ping"}|}));
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let delta = after - before in
  checkb
    (Printf.sprintf "reader memory bounded (retained %d words for %d bytes)"
       delta total)
    true
    (delta < 262_144)

let test_long_line () =
  (* a line just under the cap, sent in 4 KiB writes: each read scans
     only its own bytes and the line is cut out once, so reading it
     allocates O(line), not O(line^2) *)
  let _, srv = Lazy.force fuzz_env in
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let wrap = {|{"op":"ping","pad":""}|} in
  let pad = String.make (1_000_000 - String.length wrap) 'x' in
  let line = Printf.sprintf {|{"op":"ping","pad":"%s"}|} pad ^ "\n" in
  let before = Gc.allocated_bytes () in
  let off = ref 0 in
  while !off < String.length line do
    let n = Unix.write_substring c.fd line !off (min 4096 (String.length line - !off)) in
    off := !off + n
  done;
  let r = Jsonx.parse (recv_line c) in
  let allocated = Gc.allocated_bytes () -. before in
  checkb "long line answers pong" true
    (match r with Ok v -> obj_str "op" v = "pong" | Error _ -> false);
  checkb
    (Printf.sprintf "reading a 1 MB line allocated %.1f MB" (allocated /. 1e6))
    true (allocated < 16e6)

let test_idle_close () =
  (* a silent connection with nothing in flight is reaped: GQ064 notice,
     then EOF *)
  let config = { Server.default_config with idle_timeout_ms = 300 } in
  let _, srv = start_server config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  checkb "idle notice is GQ064" true
    (match Jsonx.parse (recv_line c) with
    | Ok v -> obj_str "code" v = "GQ064"
    | Error _ -> false);
  checkb "then closed" true
    (match recv_line c with _ -> false | exception Closed -> true)

let test_idle_after_answer () =
  (* the reaper counts from the last delivered reply, not from the read
     of the request: a reply leaves the server at least [elapsed_ms]
     after the request was sent, and on a 608-person network the query
     takes long enough that counting from the read would reap early *)
  let pg = Gqkg_workload.Contact_network.scaled (Gqkg_util.Splitmix.create 42) ~scale:8 in
  let mgr = Epochs.create (Overlay.base_of_property pg) in
  let config = { Server.default_config with idle_timeout_ms = 300 } in
  let srv = Server.start ~port:0 ~config mgr in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  let sent = Unix.gettimeofday () in
  let r = rpc c {|{"op":"query","q":"(contact + rides + rides^-)*","limit":1}|} in
  checkb "answered" true (obj_bool "ok" r);
  let answered = sent +. (obj_num "elapsed_ms" r /. 1000.) in
  let notice = Jsonx.parse (recv_line c) in
  let after_ms = 1000. *. (Unix.gettimeofday () -. answered) in
  checkb "idle notice is GQ064" true
    (match notice with Ok v -> obj_str "code" v = "GQ064" | Error _ -> false);
  checkb (Printf.sprintf "GQ064 %.1f ms after the answer, in [300, 1300]" after_ms) true
    (after_ms >= 300. && after_ms <= 1300.)

(* [select] cannot watch an fd numbered 1024 or more; the daemon must
   serve past it.  A process not allowed fd 1024 cannot meet that
   limit, so there the test is skipped. *)
let test_past_fd_1024 () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* on Unix a file_descr is its fd number; fds are allocated lowest
     first, so once a dup is numbered 1024 every later fd is above it *)
  let rec fill acc =
    match Unix.dup null with
    | fd -> if (Obj.magic fd : int) >= 1024 then fd :: acc else fill (fd :: acc)
    | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
        List.iter Unix.close acc;
        Alcotest.skip ()
  in
  let dups = fill [ null ] in
  Fun.protect ~finally:(fun () -> List.iter Unix.close dups) @@ fun () ->
  let mgr, srv = start_server Server.default_config in
  let c1 = connect (Server.port srv) and c2 = connect (Server.port srv) in
  Fun.protect
    ~finally:(fun () ->
      close c1;
      close c2)
    (fun () ->
      checkb "ping past fd 1024" true (obj_bool "ok" (rpc c1 {|{"op":"ping"}|}));
      checkb "query past fd 1024" true (obj_bool "ok" (rpc c2 {|{"op":"query","q":"rides"}|})));
  Server.stop srv;
  checki "no pins after stop" 0 (Epochs.pins mgr)

(* The drain opens no fd, so it drains a daemon that holds every fd
   its limit allows.  Under [ulimit -n 32] the daemon's accept fails
   once the clients below fill its fd table; SIGTERM must still drain
   it: exit 0, and the final metrics show no epoch pinned. *)
let test_stop_at_fd_limit () =
  let graph = Filename.temp_file "gqkg" ".pg" in
  Graph_io.save_property_graph graph (Figure2.property ());
  Fun.protect ~finally:(fun () -> Sys.remove graph) @@ fun () ->
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let serve = Filename.quote_command gqkg_exe [ "serve"; graph; "--port=0" ] in
  let pid =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; "ulimit -n 32 && exec " ^ serve |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  (* a daemon the checks below leave running is killed *)
  let exited = ref None in
  let rec wait_exit tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait_exit (tries - 1)
    | 0, _ -> ()
    | _, status -> exited := Some status
  in
  Fun.protect ~finally:(fun () ->
      close_in out;
      if !exited = None then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  let port = Scanf.sscanf (input_line out) "gqkg serve: listening on 127.0.0.1:%d" Fun.id in
  (* connect until a ping goes unanswered for 0.5 s: its accept failed *)
  let answered c =
    Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 0.5;
    send c {|{"op":"ping"}|};
    match Unix.read c.fd (Bytes.create 64) 0 64 with
    | n -> n > 0
    | exception Unix.Unix_error _ -> false
  in
  let rec fill acc =
    let c = connect port in
    if answered c && List.length acc < 64 then fill (c :: acc) else c :: acc
  in
  let clients = fill [] in
  Fun.protect ~finally:(fun () -> List.iter close clients) @@ fun () ->
  checkb "the daemon ran out of fds" true (List.length clients < 32);
  Unix.kill pid Sys.sigterm;
  wait_exit 1000;
  checkb "drained within 10 s: exit 0" true (!exited = Some (Unix.WEXITED 0));
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all out)) in
  checkb "metrics: no epoch pinned" true
    (match Jsonx.parse (List.hd (List.rev lines)) with
    | Ok m -> obj_num "pinned" m = 0.0
    | Error _ -> false)

let test_fuzz_env_drain () =
  (* drain the fuzz server and assert it leaked nothing *)
  let mgr, srv = Lazy.force fuzz_env in
  Server.stop srv;
  checki "no pins after fuzz" 0 (Epochs.pins mgr);
  checki "one live epoch" 1 (List.length (Epochs.live_epochs mgr))

(* ---------- Saturation ---------- *)

(* Concurrent clients over loopback, each mixing queries, mutations and
   pings one request at a time, without fault injection: every reply is
   a successful answer, and the drain that follows leaves no pinned
   epoch and exactly one live one. *)
let test_saturation_drain () =
  let pg = Gqkg_workload.Contact_network.scaled (Gqkg_util.Splitmix.create 1800) ~scale:2 in
  let mgr = Epochs.create (Overlay.base_of_property pg) in
  let config =
    {
      Server.default_config with
      workers = 4;
      queue_depth = 32;
      per_client_depth = 8;
      default_timeout_ms = Some 5_000;
    }
  in
  let nodes0 = (Epochs.snapshot mgr).Snapshot.num_nodes in
  let srv = Server.start ~port:0 ~config mgr in
  let port = Server.port srv in
  let n_clients = 4 and n_requests = 60 in
  let queries = [| "rides"; "rides/route*"; "lives/lives^-"; "(contact)*"; "contact/contact" |] in
  let failures = Atomic.make 0 and mutations = Atomic.make 0 in
  let client_thread k =
    let rng = Gqkg_util.Splitmix.create (1800 + k) in
    let c = connect port in
    for j = 1 to n_requests do
      let roll = Gqkg_util.Splitmix.int rng 12 in
      let line =
        if roll = 0 then begin
          Atomic.incr mutations;
          Printf.sprintf {|{"op":"mutate","ops":["node bs%dn%d person"]}|} k j
        end
        else if roll = 1 then {|{"op":"ping"}|}
        else
          Printf.sprintf {|{"op":"query","q":"%s"}|}
            queries.(Gqkg_util.Splitmix.int rng (Array.length queries))
      in
      match
        send c line;
        Jsonx.parse (recv_line c)
      with
      | Ok v when Jsonx.member "ok" v = Some (Jsonx.Bool true) -> ()
      | Ok _ | Error _ -> Atomic.incr failures
      | exception (Closed | Unix.Unix_error _) -> Atomic.incr failures
    done;
    close c
  in
  let threads = List.init n_clients (fun k -> Thread.create client_thread k) in
  List.iter Thread.join threads;
  let m = Server.metrics srv in
  Server.stop srv;
  checki "no failed reply" 0 (Atomic.get failures);
  checkb "every request answered" true
    (obj_num "responses" m >= float_of_int (n_clients * n_requests));
  checki "every mutation committed" (nodes0 + Atomic.get mutations)
    (Epochs.snapshot mgr).Snapshot.num_nodes;
  checki "no pinned epochs after drain" 0 (Epochs.pins mgr);
  checki "exactly one live epoch" 1 (List.length (Epochs.live_epochs mgr))

(* ---------- Load shedding ---------- *)

let test_load_shedding () =
  (* one worker, tiny queue: a pipelining client must see GQ060 *)
  let config =
    { Server.default_config with workers = 1; queue_depth = 2; per_client_depth = 2 }
  in
  let _, srv = start_server config in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  for _ = 1 to 20 do
    send c {|{"op":"query","q":"rides/-rides/rides"}|}
  done;
  let shed = ref 0 and answered = ref 0 in
  for _ = 1 to 20 do
    match Jsonx.parse (recv_line c) with
    | Ok r ->
        if obj_bool "ok" r then incr answered
        else if obj_str "code" r = "GQ060" then begin
          incr shed;
          (* a shed response carries the back-off hint *)
          checkb "retry_after_ms" true (obj_num "retry_after_ms" r > 0.0)
        end
    | Error e -> Alcotest.fail ("invalid JSON under overload: " ^ e)
  done;
  checkb "some requests shed" true (!shed > 0);
  checkb "some requests answered" true (!answered > 0);
  (* ping still answers inline even with the queue full *)
  checkb "responsive under load" true (obj_bool "ok" (rpc c {|{"op":"ping"}|}))

(* ---------- Fault-injected soak ---------- *)

let test_soak () =
  Semcache.reset ();
  let config =
    {
      Server.default_config with
      workers = 4;
      queue_depth = 16;
      per_client_depth = 4;
      default_timeout_ms = Some 5_000;
      (* injectors: every request budget trips after 5 checks (so any
         un-cached evaluation degrades to a partial answer), every
         connection is hard-dropped after 9 responses *)
      fault_trip_after_checks = Some 5;
      fault_drop_after = Some 9;
    }
  in
  let mgr, srv = start_server config in
  let port = Server.port srv in
  let n_clients = 6 and n_requests = 25 in
  let errors = Mutex.create () and error_log = ref [] in
  let record_error msg =
    Mutex.lock errors;
    error_log := msg :: !error_log;
    Mutex.unlock errors
  in
  let queries =
    [| "rides"; "rides/route*"; "(rides/-rides)*"; "-rides"; "contact*" |]
  in
  let client_thread k =
    let rng = Gqkg_util.Splitmix.create (1000 + k) in
    let c = ref (connect port) in
    let reconnect () =
      close !c;
      c := connect port
    in
    for j = 1 to n_requests do
      let roll = Gqkg_util.Splitmix.int rng 10 in
      let line =
        if roll = 0 then
          (* unique node per (client, iteration): mutations always valid *)
          Printf.sprintf
            {|{"op":"mutate","ops":["node s%dn%d person","edge se%dn%d s%dn%d b0 rides"]}|}
            k j k j k j
        else if roll = 1 then {|]]]]{{{{ definitely not json|}
        else if roll = 2 then {|{"op":"ping"}|}
        else if roll = 3 then {|{"op":"metrics"}|}
        else
          Printf.sprintf {|{"op":"query","q":"%s"}|}
            queries.(Gqkg_util.Splitmix.int rng (Array.length queries))
      in
      match
        send !c line;
        recv_line !c
      with
      | response -> (
          match Jsonx.parse response with
          | Ok v ->
              (* the core soak invariant: every line the server ever
                 writes is valid JSON with a boolean ok, and failures
                 carry structured GQ0xx codes *)
              let ok = obj_bool "ok" v in
              if not ok then begin
                let code = obj_str "code" v in
                if not (String.length code = 5 && String.sub code 0 3 = "GQ0") then
                  record_error ("bad code: " ^ code)
              end
          | Error e -> record_error ("invalid JSON: " ^ e))
      | exception Closed -> reconnect () (* injected drop: carry on *)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> reconnect ()
    done;
    close !c
  in
  let threads = List.init n_clients (fun k -> Thread.create client_thread k) in
  List.iter Thread.join threads;
  (* graceful drain, then the leak assertions *)
  let metrics_before = Server.metrics srv in
  Server.stop srv;
  Mutex.lock errors;
  (match !error_log with
  | [] -> ()
  | e :: _ -> Alcotest.fail (Printf.sprintf "%d soak errors, first: %s" (List.length !error_log) e));
  Mutex.unlock errors;
  checki "no pinned epochs after drain" 0 (Epochs.pins mgr);
  checki "exactly one live epoch" 1 (List.length (Epochs.live_epochs mgr));
  (* no stale derived state after the soak's commits: the final epoch's
     cached answers equal a fresh freeze's (empty memo), by node name *)
  let final = Epochs.snapshot mgr in
  let fresh = Snapshot.of_property (Journal.replay_ops (Overlay.history (Epochs.base mgr))) in
  let named (s : Snapshot.t) q =
    let o =
      Gqkg_core.Governor.eval_pairs ~use_cache:true ~budget:(Gqkg_util.Budget.create ()) s
        (Gqkg_automata.Regex_parser.parse q)
    in
    o.Gqkg_util.Budget.value
    |> List.map (fun (a, b) -> (s.Snapshot.node_name a, s.Snapshot.node_name b))
    |> List.sort compare
  in
  Array.iter
    (fun q -> checkb ("final epoch answers " ^ q ^ " fresh") true (named final q = named fresh q))
    queries;
  checkb "requests were served" true (obj_num "responses" metrics_before > 0.0);
  checkb "injector dropped connections" true (obj_num "injected_drops" metrics_before > 0.0);
  checkb "injector tripped budgets" true (obj_num "budget_trips" metrics_before > 0.0);
  (* a drained server refuses new connections *)
  checkb "listener closed" true
    (match connect port with
    | c ->
        close c;
        (* connect can succeed briefly on some stacks; a read must fail *)
        true
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg server"
    [
      ( "jsonx",
        Alcotest.test_case "syntax" `Quick test_jsonx_syntax
        :: q [ prop_jsonx_roundtrip; prop_jsonx_total ] );
      ( "admission",
        [
          Alcotest.test_case "caps" `Quick test_admission_caps;
          Alcotest.test_case "fairness" `Quick test_admission_fairness;
          Alcotest.test_case "drain" `Quick test_admission_drain;
          Alcotest.test_case "forget client" `Quick test_admission_forget;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "basics" `Quick test_protocol_basics;
          Alcotest.test_case "budget degradation" `Quick test_budget_degradation;
          Alcotest.test_case "mutate non-string op" `Quick test_mutate_non_string_op;
          Alcotest.test_case "count op" `Quick test_count_op;
          Alcotest.test_case "count length bound" `Quick test_count_length_bound;
          Alcotest.test_case "page per epoch" `Quick test_page_per_epoch;
          Alcotest.test_case "CLI bad arguments" `Quick test_cli_bad_arguments;
        ]
        @ q [ prop_cli_daemon_agree ] );
      ( "wire fuzz",
        q [ prop_wire_fuzz ]
        @ [
            Alcotest.test_case "torn request" `Quick test_torn_request;
            Alcotest.test_case "oversized line bounded" `Quick test_oversized_line;
            Alcotest.test_case "long line linear" `Quick test_long_line;
            Alcotest.test_case "idle close" `Quick test_idle_close;
            Alcotest.test_case "idle after an answer" `Quick test_idle_after_answer;
            Alcotest.test_case "fuzz drain leak-free" `Quick test_fuzz_env_drain;
          ] );
      ( "overload",
        [
          Alcotest.test_case "load shedding" `Quick test_load_shedding;
          Alcotest.test_case "saturation drain" `Quick test_saturation_drain;
          Alcotest.test_case "serves past fd 1024" `Quick test_past_fd_1024;
          Alcotest.test_case "stop at the fd limit" `Quick test_stop_at_fd_limit;
        ] );
      ("soak", [ Alcotest.test_case "fault-injected soak" `Quick test_soak ]);
      (* last: its snapshots advance the process-wide epoch counter,
         whose values [basics] checks *)
      ( "pages",
        q [ prop_page_bytes; prop_answer_pages ]
        @ [ Alcotest.test_case "four domains share an answer's page and relation" `Quick
              test_answer_state_race ] );
    ]
