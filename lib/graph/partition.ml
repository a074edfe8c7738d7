type t = {
  snapshot : Snapshot.t;
  block_bits : int;
  num_blocks : int;
  blk_off : int array;  (* num_blocks + 1 offsets into blk_eid *)
  blk_eid : int array;  (* edge ids, ascending within each block *)
}

let build ?(block_bits = 15) (s : Snapshot.t) =
  if block_bits < 1 || block_bits > 30 then invalid_arg "Partition.build: block_bits in [1,30]";
  let n = s.num_nodes and m = s.num_edges in
  let num_blocks = max 1 ((n + (1 lsl block_bits) - 1) lsr block_bits) in
  let blk_off = Array.make (num_blocks + 1) 0 in
  for e = 0 to m - 1 do
    let b = s.edst.(e) lsr block_bits in
    blk_off.(b + 1) <- blk_off.(b + 1) + 1
  done;
  for b = 1 to num_blocks do
    blk_off.(b) <- blk_off.(b) + blk_off.(b - 1)
  done;
  let blk_eid = Array.make m 0 in
  let cursor = Array.copy blk_off in
  (* ascending e keeps each block's list in ascending edge id *)
  for e = 0 to m - 1 do
    let b = s.edst.(e) lsr block_bits in
    blk_eid.(cursor.(b)) <- e;
    cursor.(b) <- cursor.(b) + 1
  done;
  { snapshot = s; block_bits; num_blocks; blk_off; blk_eid }

let num_blocks p = p.num_blocks
let block_bits p = p.block_bits
let block_size p = 1 lsl p.block_bits
let block_of_node p v = v lsr p.block_bits
let edges_in_block p b = p.blk_off.(b + 1) - p.blk_off.(b)

let iter_block p ~block f =
  let s = p.snapshot in
  for i = p.blk_off.(block) to p.blk_off.(block + 1) - 1 do
    let e = p.blk_eid.(i) in
    f e s.Snapshot.esrc.(e) s.Snapshot.edst.(e)
  done

let describe p =
  let sizes = Array.init p.num_blocks (fun b -> edges_in_block p b) in
  let sorted = Array.copy sizes in
  Array.sort compare sorted;
  let m = Array.fold_left ( + ) 0 sizes in
  let mean = float_of_int m /. float_of_int p.num_blocks in
  let median = sorted.(p.num_blocks / 2) in
  let mx = if p.num_blocks = 0 then 0 else sorted.(p.num_blocks - 1) in
  let mn = if p.num_blocks = 0 then 0 else sorted.(0) in
  let imbalance = if mean > 0.0 then float_of_int mx /. mean else 1.0 in
  Printf.sprintf
    "partition: %d block%s x %d nodes; edges/block min %d median %d max %d (imbalance %.2f)"
    p.num_blocks
    (if p.num_blocks = 1 then "" else "s")
    (block_size p) mn median mx imbalance
