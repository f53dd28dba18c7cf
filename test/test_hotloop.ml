(* Hot-loop overhaul regression tests: the array operand stack against a
   list-based reference model, the 1024-depth boundary, pre-decoded code
   artifacts against the naive per-frame computations, allocation-free
   word I/O, the second-chance LRU prefix cache, and the executor's
   step accounting. *)

module U = Word.U256
module Op = Evm.Opcode

let unit name f = Alcotest.test_case name `Quick f

let addr_a = U.of_int 0xA
let addr_b = U.of_int 0xB

(* Run [code] installed at [addr_a]; returns the trace. *)
let run ?(data = "") ?(gas = 10_000_000) code =
  let state = Evm.State.set_code Evm.State.empty addr_a (Array.of_list code) in
  let state =
    Evm.State.credit state addr_b (U.of_decimal_string "1000000000000000000000")
  in
  snd
    (Evm.Interp.execute ~block:Evm.Interp.default_block ~state
       { caller = addr_b; origin = addr_b; callee = addr_a; value = U.zero;
         data; gas })

let status_of code =
  Evm.Trace.status_to_string (run code : Evm.Trace.t).status

let pushes n = List.init n (fun i -> Op.PUSH (U.of_int i))

(* ---------------- stack depth boundary ----------------

   The previous list-based stack checked [List.length stack > 1024]
   after the push, admitting depth 1025; these pin the corrected EVM
   bound on the array stack. *)

let boundary =
  [
    unit "depth 1023 succeeds" (fun () ->
        Alcotest.(check string) "status" "success" (status_of (pushes 1023)));
    unit "depth 1024 succeeds" (fun () ->
        Alcotest.(check string) "status" "success" (status_of (pushes 1024)));
    unit "the 1025th push halts with a stack error" (fun () ->
        Alcotest.(check string) "status" "stack-error" (status_of (pushes 1025)));
    unit "DUP onto a full stack is a stack error" (fun () ->
        Alcotest.(check string) "status" "stack-error"
          (status_of (pushes 1024 @ [ Op.DUP 1 ])));
    unit "SWAP on a full stack still works" (fun () ->
        Alcotest.(check string) "status" "success"
          (status_of (pushes 1024 @ [ Op.SWAP 16 ])));
    unit "DUP deeper than the stack is a stack error" (fun () ->
        Alcotest.(check string) "status" "stack-error"
          (status_of (pushes 3 @ [ Op.DUP 4 ])));
    unit "SWAP needs n+1 elements" (fun () ->
        Alcotest.(check string) "status" "stack-error"
          (status_of (pushes 3 @ [ Op.SWAP 3 ])));
    unit "SWAP with exactly n+1 elements succeeds" (fun () ->
        Alcotest.(check string) "status" "success"
          (status_of (pushes 4 @ [ Op.SWAP 3 ])));
    unit "POP of an empty stack is a stack error" (fun () ->
        Alcotest.(check string) "status" "stack-error" (status_of [ Op.POP ]));
  ]

(* ---------------- array stack vs list reference model ----------------

   The reference model is the interpreter's old list-based operand stack
   (cons push, [List.nth] DUP, swap-top-with-nth SWAP), with the depth
   guard at the EVM's 1024 bound. Random stack-op programs must behave
   identically on both representations. *)

type sop = S_push of U.t | S_pop | S_dup of int | S_swap of int

let ref_exec ops =
  let rec go stack = function
    | [] -> Ok stack
    | S_push v :: rest ->
      if List.length stack >= 1024 then Error () else go (v :: stack) rest
    | S_pop :: rest -> (
      match stack with _ :: s -> go s rest | [] -> Error ())
    | S_dup n :: rest -> (
      match List.nth_opt stack (n - 1) with
      | Some v ->
        if List.length stack >= 1024 then Error () else go (v :: stack) rest
      | None -> Error ())
    | S_swap n :: rest ->
      if List.length stack < n + 1 then Error ()
      else
        let top = List.nth stack 0 and nth = List.nth stack n in
        let s =
          List.mapi
            (fun i x -> if i = 0 then nth else if i = n then top else x)
            stack
        in
        go s rest
  in
  go [] ops

let op_of_sop = function
  | S_push v -> Op.PUSH v
  | S_pop -> Op.POP
  | S_dup n -> Op.DUP n
  | S_swap n -> Op.SWAP n

let gen_sop =
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun n -> S_push (U.of_int (abs n))) small_int);
        (2, return S_pop);
        (2, map (fun n -> S_dup (1 + (abs n mod 16))) small_int);
        (2, map (fun n -> S_swap (1 + (abs n mod 16))) small_int);
      ])

let gen_program = QCheck2.Gen.(list_size (int_range 1 60) gen_sop)

let print_program ops =
  String.concat ";"
    (List.map
       (function
         | S_push v -> "PUSH " ^ U.to_decimal_string v
         | S_pop -> "POP"
         | S_dup n -> Printf.sprintf "DUP%d" n
         | S_swap n -> Printf.sprintf "SWAP%d" n)
       ops)

let stack_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"array stack = list-stack reference model"
       ~count:300 ~print:print_program gen_program (fun ops ->
         let code = List.map op_of_sop ops in
         match ref_exec ops with
         | Error () -> status_of code = "stack-error"
         | Ok [] -> status_of code = "success"
         | Ok (top :: _) ->
           (* return the top of the final stack and compare words *)
           let trace =
             run
               (code
               @ [ Op.PUSH U.zero; Op.MSTORE; Op.PUSH (U.of_int 32);
                   Op.PUSH U.zero; Op.RETURN ])
           in
           Evm.Trace.status_to_string trace.status = "success"
           && U.equal (U.of_bytes_be trace.return_data) top))

(* ---------------- pre-decoded artifacts ---------------- *)

let gen_opcode =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> Op.PUSH (U.of_int (abs n))) int);
        (2, return Op.JUMPDEST);
        (1, return Op.ADD);
        (1, return Op.POP);
        (1, return Op.MSTORE);
        (1, return Op.STOP);
        (1, map (fun n -> Op.PUSH (U.shift_left U.one (abs n mod 256))) small_int);
      ])

let gen_bytecode =
  QCheck2.Gen.(map Array.of_list (list_size (int_range 0 80) gen_opcode))

let print_bytecode = Evm.Bytecode.to_listing

let artifact_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"artifact agrees with naive per-frame computation"
       ~count:200 ~print:print_bytecode gen_bytecode (fun code ->
         let art = Evm.Bytecode.decode code in
         let naive = Evm.Bytecode.jumpdests code in
         let jd_ok =
           Array.length art.a_jumpdest = Array.length code
           && Array.for_all Fun.id
                (Array.init (Array.length code) (fun pc ->
                     Evm.Bytecode.is_jumpdest art pc = Hashtbl.mem naive pc))
           && (not (Evm.Bytecode.is_jumpdest art (-1)))
           && not (Evm.Bytecode.is_jumpdest art (Array.length code))
         in
         jd_ok
         && art.a_byte_size = Evm.Bytecode.byte_size code
         && Array.to_list art.a_push_constants = Evm.Bytecode.push_constants code))

let artifact_idempotent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"artifact decoding is idempotent and memoized"
       ~count:100 ~print:print_bytecode gen_bytecode (fun code ->
         let a1 = Evm.Bytecode.decode code in
         let a2 = Evm.Bytecode.decode code in
         let m1 = Evm.Bytecode.artifact code in
         let m2 = Evm.Bytecode.artifact code in
         a1.a_jumpdest = a2.a_jumpdest
         && a1.a_byte_size = a2.a_byte_size
         && a1.a_push_constants = a2.a_push_constants
         && m1 == m2
         && m1.a_jumpdest = a1.a_jumpdest))

(* ---------------- allocation-free word I/O ---------------- *)

let gen_word =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> U.of_int (abs n)) int;
        return U.zero;
        return U.max_value;
        map (fun n -> U.shift_left U.one (abs n mod 256)) small_int;
        map2
          (fun a b ->
            U.logor (U.shift_left (U.of_int (abs a)) 128) (U.of_int (abs b)))
          int int;
      ])

let blit_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"blit_be/read_be agree with to/of_bytes_be"
       ~count:300 ~print:U.to_decimal_string gen_word (fun w ->
         let buf = Bytes.make 40 '\xAA' in
         U.blit_be w buf 4;
         let s = Bytes.sub_string buf 4 32 in
         s = U.to_bytes_be w
         && U.equal (U.read_be buf 4) w
         && U.equal (U.read_be_string (Bytes.to_string buf) 4) w
         && U.equal (U.of_bytes_be s) w
         (* surrounding bytes untouched *)
         && Bytes.sub_string buf 0 4 = "\xAA\xAA\xAA\xAA"
         && Bytes.sub_string buf 36 4 = "\xAA\xAA\xAA\xAA"))

(* ---------------- second-chance LRU prefix cache ---------------- *)

let snapshot =
  {
    Mufuzz.State_cache.state = Evm.State.empty;
    block = Evm.Interp.default_block;
    tx_results = [];
    received_value = false;
  }

let lru =
  [
    unit "a full cache still serves recently used keys" (fun () ->
        let c = Mufuzz.State_cache.create ~capacity:4 () in
        List.iter
          (fun k -> Mufuzz.State_cache.store c k snapshot)
          [ "k1"; "k2"; "k3"; "k4" ];
        (* touch k2..k4: they are now recently used; k1 stays cold *)
        List.iter
          (fun k ->
            Alcotest.(check bool)
              ("hit " ^ k) true
              (Mufuzz.State_cache.find c k <> None))
          [ "k2"; "k3"; "k4" ];
        Mufuzz.State_cache.store c "k5" snapshot;
        (* only the cold entry went; everything recent survives — the
           old implementation wiped the whole table here *)
        Alcotest.(check bool)
          "k1 evicted" true
          (Mufuzz.State_cache.find c "k1" = None);
        List.iter
          (fun k ->
            Alcotest.(check bool)
              ("survives " ^ k) true
              (Mufuzz.State_cache.find c k <> None))
          [ "k2"; "k3"; "k4"; "k5" ];
        Alcotest.(check int) "one eviction" 1 (Mufuzz.State_cache.evictions c));
    unit "restoring an existing key does not evict" (fun () ->
        let c = Mufuzz.State_cache.create ~capacity:2 () in
        Mufuzz.State_cache.store c "a" snapshot;
        Mufuzz.State_cache.store c "b" snapshot;
        Mufuzz.State_cache.store c "a" snapshot;
        Alcotest.(check int) "no evictions" 0 (Mufuzz.State_cache.evictions c);
        Alcotest.(check bool)
          "a present" true
          (Mufuzz.State_cache.find c "a" <> None);
        Alcotest.(check bool)
          "b present" true
          (Mufuzz.State_cache.find c "b" <> None));
    unit "sustained overflow evicts one entry per insertion" (fun () ->
        let c = Mufuzz.State_cache.create ~capacity:8 () in
        for i = 1 to 100 do
          Mufuzz.State_cache.store c (Printf.sprintf "key%d" i) snapshot
        done;
        Alcotest.(check int) "evictions" 92 (Mufuzz.State_cache.evictions c);
        (* the most recent insertion is always resident *)
        Alcotest.(check bool)
          "latest present" true
          (Mufuzz.State_cache.find c "key100" <> None));
    unit "metrics counters mirror hits, misses and evictions" (fun () ->
        let m = Telemetry.Metrics.create () in
        let c = Mufuzz.State_cache.create ~capacity:2 ~metrics:m () in
        Mufuzz.State_cache.store c "a" snapshot;
        Mufuzz.State_cache.store c "b" snapshot;
        ignore (Mufuzz.State_cache.find c "a");
        ignore (Mufuzz.State_cache.find c "nope");
        Mufuzz.State_cache.store c "d" snapshot;
        let v name =
          Telemetry.Metrics.value (Telemetry.Metrics.counter m name)
        in
        (* counts reach the registry only at flush (batch boundary) *)
        Alcotest.(check int) "nothing before flush" 0
          (v "mufuzz_cache_hits_total");
        Mufuzz.State_cache.flush_metrics c;
        (* a second flush must not double-count *)
        Mufuzz.State_cache.flush_metrics c;
        Alcotest.(check int)
          "hits" (Mufuzz.State_cache.hits c)
          (v "mufuzz_cache_hits_total");
        Alcotest.(check int)
          "misses" (Mufuzz.State_cache.misses c)
          (v "mufuzz_cache_misses_total");
        Alcotest.(check int)
          "evictions" (Mufuzz.State_cache.evictions c)
          (v "mufuzz_cache_evictions_total");
        Alcotest.(check int)
          "one eviction happened" 1
          (Mufuzz.State_cache.evictions c));
  ]

(* ---------------- executor step accounting ---------------- *)

let crowdsale_seed () =
  let c = Minisol.Contract.compile Corpus.Examples.crowdsale in
  let rng = Util.Rng.create 7L in
  let seed =
    Mufuzz.Seed.of_sequence rng ~n_senders:3 c.abi
      ("constructor" :: Mufuzz.Campaign.derive_sequence c)
  in
  (c, seed)

let executor_steps =
  [
    unit "executed_steps sums the per-transaction trace steps" (fun () ->
        let c, seed = crowdsale_seed () in
        let run =
          Mufuzz.Executor.run_seed ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:false seed
        in
        let sum =
          List.fold_left
            (fun a (r : Mufuzz.Executor.tx_result) ->
              a + r.trace.Evm.Trace.steps)
            0 run.tx_results
        in
        Alcotest.(check bool) "nonzero" true (run.executed_steps > 0);
        Alcotest.(check int) "sum" sum run.executed_steps);
    unit "a fully cached replay executes zero steps" (fun () ->
        let c, seed = crowdsale_seed () in
        let ctx =
          Mufuzz.Executor.make_ctx ~contract:c ~gas:1_000_000 ~n_senders:3
            ~attacker:false ~cache:(Mufuzz.State_cache.create ()) ()
        in
        let r1 = Mufuzz.Executor.run_in_ctx ctx seed in
        let r2 = Mufuzz.Executor.run_in_ctx ctx seed in
        Alcotest.(check bool) "first run works" true (r1.executed_steps > 0);
        Alcotest.(check int) "replay is free" 0 r2.executed_steps;
        Alcotest.(check int)
          "same transcript"
          (List.length r1.tx_results)
          (List.length r2.tx_results));
  ]

let suite =
  [
    ("hotloop.stack_boundary", boundary);
    ("hotloop.stack_model", [ stack_differential ]);
    ("hotloop.artifact", [ artifact_agrees; artifact_idempotent ]);
    ("hotloop.word_io", [ blit_roundtrip ]);
    ("hotloop.state_cache_lru", lru);
    ("hotloop.executor_steps", executor_steps);
  ]
