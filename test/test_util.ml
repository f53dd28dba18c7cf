(* RNG determinism/distribution sanity, hex codec, table rendering. *)

let unit name f = Alcotest.test_case name `Quick f

let rng_tests =
  [
    unit "same seed same stream" (fun () ->
        let a = Util.Rng.create 7L and b = Util.Rng.create 7L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "step" (Util.Rng.next_int64 a) (Util.Rng.next_int64 b)
        done);
    unit "different seeds differ" (fun () ->
        let a = Util.Rng.create 1L and b = Util.Rng.create 2L in
        Alcotest.(check bool) "neq" true
          (Util.Rng.next_int64 a <> Util.Rng.next_int64 b));
    unit "int respects bound" (fun () ->
        let rng = Util.Rng.create 3L in
        for _ = 1 to 1000 do
          let v = Util.Rng.int rng 17 in
          if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
        done);
    unit "int_in inclusive bounds" (fun () ->
        let rng = Util.Rng.create 4L in
        let seen_lo = ref false and seen_hi = ref false in
        for _ = 1 to 2000 do
          let v = Util.Rng.int_in rng 3 5 in
          if v = 3 then seen_lo := true;
          if v = 5 then seen_hi := true;
          if v < 3 || v > 5 then Alcotest.fail "out of range"
        done;
        Alcotest.(check bool) "both endpoints hit" true (!seen_lo && !seen_hi));
    unit "split streams are independent" (fun () ->
        let parent = Util.Rng.create 9L in
        let c1 = Util.Rng.split parent in
        let c2 = Util.Rng.split parent in
        Alcotest.(check bool) "children differ" true
          (Util.Rng.next_int64 c1 <> Util.Rng.next_int64 c2));
    unit "copy preserves state" (fun () ->
        let a = Util.Rng.create 11L in
        ignore (Util.Rng.next_int64 a);
        let b = Util.Rng.copy a in
        Alcotest.(check int64) "same next" (Util.Rng.next_int64 a)
          (Util.Rng.next_int64 b));
    unit "float in unit interval" (fun () ->
        let rng = Util.Rng.create 5L in
        for _ = 1 to 1000 do
          let f = Util.Rng.float rng in
          if f < 0.0 || f >= 1.0 then Alcotest.fail "out of [0,1)"
        done);
    unit "shuffle permutes" (fun () ->
        let rng = Util.Rng.create 6L in
        let l = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
        let s = Util.Rng.shuffle_list rng l in
        Alcotest.(check (list int)) "same multiset" l (List.sort compare s));
    unit "bytes length" (fun () ->
        let rng = Util.Rng.create 8L in
        Alcotest.(check int) "len" 40 (Bytes.length (Util.Rng.bytes rng 40)));
  ]

let hex_tests =
  [
    unit "encode" (fun () ->
        Alcotest.(check string) "hex" "00ff10" (Util.Hex.encode "\x00\xff\x10"));
    unit "decode" (fun () ->
        Alcotest.(check string) "bytes" "\x00\xff\x10" (Util.Hex.decode "00ff10"));
    unit "decode 0x prefix" (fun () ->
        Alcotest.(check string) "bytes" "\xab" (Util.Hex.decode "0xAB"));
    unit "decode odd length rejected" (fun () ->
        Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
          (fun () -> ignore (Util.Hex.decode "abc")));
    unit "roundtrip" (fun () ->
        let s = String.init 64 (fun i -> Char.chr ((i * 37) mod 256)) in
        Alcotest.(check string) "rt" s (Util.Hex.decode (Util.Hex.encode s)));
  ]

let table_tests =
  [
    unit "renders all cells" (fun () ->
        let t = Util.Table.create ~headers:[ "a"; "b" ] in
        Util.Table.add_row t [ "hello"; "world" ];
        Util.Table.add_row t [ "x" ];
        let s = Util.Table.render t in
        List.iter
          (fun needle ->
            if not (String.length s > 0 && String.length needle > 0) then ()
            else
              let found =
                let rec go i =
                  i + String.length needle <= String.length s
                  && (String.sub s i (String.length needle) = needle || go (i + 1))
                in
                go 0
              in
              Alcotest.(check bool) needle true found)
          [ "hello"; "world"; "a"; "b"; "x" ]);
    unit "ragged rows pad" (fun () ->
        let t = Util.Table.create ~headers:[ "one" ] in
        Util.Table.add_row t [ "1"; "2"; "3" ];
        Alcotest.(check bool) "renders" true (String.length (Util.Table.render t) > 0));
  ]

let suite =
  [ ("util: rng", rng_tests); ("util: hex", hex_tests); ("util: table", table_tests) ]

let stats_tests =
  [
    unit "mean" (fun () ->
        Alcotest.(check (float 0.0001)) "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 0.0001)) "empty" 0.0 (Util.Stats.mean []));
    unit "stddev" (fun () ->
        Alcotest.(check (float 0.0001)) "uniform" 0.0 (Util.Stats.stddev [ 5.0; 5.0 ]);
        Alcotest.(check (float 0.01)) "spread" 2.0
          (Util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]));
    unit "median" (fun () ->
        Alcotest.(check (float 0.0001)) "odd" 3.0 (Util.Stats.median [ 5.0; 1.0; 3.0 ]);
        Alcotest.(check (float 0.0001)) "even" 2.5
          (Util.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]));
    unit "min_max" (fun () ->
        Alcotest.(check (pair (float 0.0) (float 0.0))) "range" (1.0, 9.0)
          (Util.Stats.min_max [ 3.0; 9.0; 1.0 ]));
  ]

let suite = suite @ [ ("util: stats", stats_tests) ]

let fileio_tests =
  [
    unit "mkdirs creates a nested path" (fun () ->
        Util.Fileio.with_temp_dir ~prefix:"mkdirs" (fun root ->
            let dir = List.fold_left Filename.concat root [ "a"; "b"; "c" ] in
            Util.Fileio.mkdirs dir;
            Alcotest.(check bool) "is a directory" true (Sys.is_directory dir)));
    unit "mkdirs on an existing path keeps its content" (fun () ->
        Util.Fileio.with_temp_dir ~prefix:"mkdirs" (fun root ->
            let file = Filename.concat root "keep" in
            Util.Fileio.write_atomic file "x";
            Util.Fileio.mkdirs root;
            Util.Fileio.mkdirs root;
            Alcotest.(check string) "content" "x" (Util.Fileio.read_file file)));
  ]

let suite = suite @ [ ("util: fileio", fileio_tests) ]
