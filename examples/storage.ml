(* The database side of the story (Section 2.1: store, keep safe,
   organize and operate on data in a permanent form): a graph that grows
   and shrinks by committed epochs, kept safe as a journal of its minimal
   history and as a lossless binary checkpoint, and queried live as it
   changes.

     dune exec examples/storage.exe *)

open Gqkg_graph
open Gqkg_core

let c = Const.str

(* A property atom on purpose: the checkpoint keeps properties. *)
let exposure = Gqkg_automata.Regex_parser.parse "?person/(rides & date=3/4/21)/?bus/rides^-/?infected"

let exposures snap =
  Rpq.eval_pairs snap exposure
  |> List.map (fun (a, b) -> (snap.Snapshot.node_name a, snap.Snapshot.node_name b))

(* One epoch: the ops go through an overlay on the current base, which
   refuses an invalid op before anything is committed. *)
let commit mgr ops =
  let overlay = Overlay.create (Epochs.base mgr) in
  List.iter (Overlay.apply overlay) ops;
  ignore (Epochs.commit mgr overlay)

let () =
  (* Day 1: record the world as we learn it. *)
  let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops [])) in
  commit mgr
    [
      Mutation.Add_node { id = c "ada"; label = c "person" };
      Add_node { id = c "ben"; label = c "infected" };
      Add_node { id = c "bus7"; label = c "bus" };
      Add_edge { id = c "r1"; src = c "ada"; dst = c "bus7"; label = c "rides" };
      Add_edge { id = c "r2"; src = c "ben"; dst = c "bus7"; label = c "rides" };
      Set_edge_prop { id = c "r1"; prop = c "date"; value = Const.date ~year:2021 ~month:3 ~day:4 };
    ];
  let snap = Epochs.snapshot mgr in
  Printf.printf "day 1: %d nodes, %d edges in %d commit(s)\n" snap.Snapshot.num_nodes
    snap.Snapshot.num_edges (Epochs.commits mgr);
  List.iter (fun (a, b) -> Printf.printf "  exposure: %s -> %s\n" a b) (exposures snap);

  (* Keep it safe twice: the minimal history as a journal, the frozen
     state as a checkpoint. *)
  let log = Filename.temp_file "gqkg_example" ".log" in
  let gqs = Filename.temp_file "gqkg_example" ".gqs" in
  let history = Overlay.history (Epochs.base mgr) in
  Out_channel.with_open_text log (fun oc -> output_string oc (Journal.ops_to_string history));
  let report = Snapshot_io.save ~path:gqs snap in
  Printf.printf "\nsaved: journal of %d ops, checkpoint of %d bytes\n" (List.length history)
    report.Snapshot_io.file_bytes;

  (* Restart: both reload to the same state, the dated ride included. *)
  let replayed = Snapshot.of_property (Journal.load log) in
  let restored = Snapshot_io.load gqs in
  Printf.printf "after restart: journal replay finds %d exposure(s), checkpoint %d\n"
    (List.length (exposures replayed)) (List.length (exposures restored));

  (* Day 2: ben recovers — shrink the graph, starting from the
     checkpoint; a bad op is refused before it is committed. *)
  let mgr = Epochs.create (Overlay.base_of_snapshot restored) in
  commit mgr [ Mutation.Del_node { id = c "ben" } ];
  (match commit mgr [ Mutation.Del_edge { id = c "r2" } ] with
  | exception Journal.Replay_error { message; _ } ->
      Printf.printf "\nrejected invalid op (already gone with ben): %s\n" message
  | () -> assert false);
  Printf.printf "exposures now: %d\n" (List.length (exposures (Epochs.snapshot mgr)));

  (* Crash simulation: a torn final journal line is tolerated on
     recovery. *)
  Out_channel.with_open_gen [ Open_append ] 0o644 log (fun oc -> output_string oc "nprop ada ag");
  Printf.printf "\nrecovered after a simulated torn write: %d clean ops survive\n"
    (List.length (Journal.load_ops ~tolerate_partial:true log));
  Sys.remove log;
  Sys.remove gqs
