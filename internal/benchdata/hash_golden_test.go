package benchdata

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// goldenHashes pins ir.Hash of every benchmark pair's source and target.
// Hash values are persisted as store keys (findings, pool vectors,
// rulebooks), so a change to ir.Hash that moves any of them orphans every
// existing store: these values must never change.
var goldenHashes = map[string][2]uint64{
	"rq1/104875": {0xc7b8b645294a2051, 0x2d8cc481d23dd065},
	"rq1/107228": {0xedd6e3d14d3f3b5b, 0xff33c433b6a69884},
	"rq1/108451": {0x6775eec00fd2a2ff, 0xfa1869f4b4244f8e},
	"rq1/108559": {0x11f0d1f1b2f7fd2c, 0x21c334f02a03ef0e},
	"rq1/110591": {0x1f0246ebc93fb8d1, 0x9fc9eca87af60e0b},
	"rq1/115466": {0x60d19fcfd7a24de7, 0x21c334f02a03ef0e},
	"rq1/118155": {0x421d4601b4c05026, 0x7668d47577376e18},
	"rq1/122235": {0x1e29400d2c544c8b, 0x2bcd137db7062f64},
	"rq1/122388": {0x7993228c56eeae57, 0xf44d01f03572146c},
	"rq1/126056": {0x1decf7318861f5b1, 0x655c5acdb2376e66},
	"rq1/128475": {0xf505c80be211fafd, 0xf3706d9cabef715d},
	"rq1/128778": {0x8bd709ba9c1bbc4e, 0x845079e71d3c8138},
	"rq1/129947": {0xdcefa8077fde12cc, 0x2965c6bb30d6e514},
	"rq1/131444": {0x548f0bcf57010da8, 0x4f45286acd294c60},
	"rq1/131824": {0xa70ed0ec56a20476, 0xd304ff14ed7bc6d7},
	"rq1/132508": {0x124d5fab8618e0db, 0x4307a118a487c03e},
	"rq1/134318": {0x76d698c53bcf2e3b, 0x05df4ccc434e4a50},
	"rq1/135411": {0x20e45c1436cc81ac, 0x202046420b6bfa52},
	"rq1/137161": {0xe655be165403fc99, 0x3dc4ce0329ac0191},
	"rq1/141479": {0x9cfd9bb798fac6eb, 0x58551cb9287b7a78},
	"rq1/141753": {0xedc55374f5435962, 0xe1b4873d0aadd2f8},
	"rq1/141930": {0x81b050bcf513e553, 0x0354012268ea3769},
	"rq1/142497": {0x6232881641dfc946, 0xf3fe85ec62c45e69},
	"rq1/142593": {0xd0bee821bc1a4bd5, 0xf263e90fe1bba3cc},
	"rq1/143259": {0x564ce261f69ce9ca, 0x1372c9c4a1c6b488},
	"rq2/128134": {0x5b9c50946921cbef, 0x8a7f6e8bf2d0a310},
	"rq2/128460": {0x4b7aa4c81527fbc0, 0x37a696a1520c715c},
	"rq2/130954": {0xd539b410c815dd58, 0x3d7cd894a3ec9a4c},
	"rq2/132628": {0x3df4bd210df36f3b, 0xd29a77ae5c227010},
	"rq2/133367": {0x1eabea84e7dabbd4, 0xf5c91fa81e68f65c},
	"rq2/139641": {0x9fa44bc5a2f126e4, 0x3ec7095a1eaca62b},
	"rq2/139786": {0x1f0246ebc93fb8d1, 0x9fc9eca87af60e0b},
	"rq2/142674": {0x9cfd9bb798fac6eb, 0x58551cb9287b7a78},
	"rq2/142711": {0xd8ccec7d447b274f, 0xa82c9f61bf6a415f},
	"rq2/143030": {0xea85090708060224, 0x55c5c2422477d58e},
	"rq2/143211": {0xed97894bb40ba8eb, 0x02bc8bf3e40ee980},
	"rq2/143630": {0x290fbd41b3fb4064, 0x6d7c46e52ada8ab2},
	"rq2/143636": {0x4b5f0b2b46b3150c, 0x9ab53c971cb668fc},
	"rq2/143649": {0xaabcb32c2d161df6, 0xaafba1c168c35bb7},
	"rq2/143957": {0x124d5fab8618e0db, 0x4307a118a487c03e},
	"rq2/144020": {0xedc55374f5435962, 0xe1b4873d0aadd2f8},
	"rq2/152237": {0xb002d1c79f73b0fe, 0x202046420b6bfa52},
	"rq2/152788": {0x8fffb219712f1946, 0x4307a118a487c03e},
	"rq2/152797": {0x808db8fed572a9e1, 0xd597e1b710e244d4},
	"rq2/152804": {0xa0fcb6a4b8170ee2, 0xf17a58434c052eb1},
	"rq2/153991": {0x6c018955bd045c33, 0x488afef10bff712e},
	"rq2/153999": {0x5594ae0648a9f6f1, 0x005b90af4d2a7deb},
	"rq2/154000": {0x8dd15c0d785b7984, 0x49ca1c6201223f9c},
	"rq2/154025": {0xa81e3c35c48f7443, 0x4307a118a487c03e},
	"rq2/154035": {0x76d698c53bcf2e3b, 0x05df4ccc434e4a50},
	"rq2/154238": {0x2702430779ff2f6a, 0xaeb6ed2cc064c31d},
	"rq2/154242": {0xd0bee821bc1a4bd5, 0xf263e90fe1bba3cc},
	"rq2/154246": {0x9515c39d2b356edd, 0xb337846c9378b088},
	"rq2/154258": {0x0e74fb993477351e, 0x202046420b6bfa52},
	"rq2/157315": {0x8961376ba348f3e4, 0xbd18b374b982a02e},
	"rq2/157370": {0x75bf33d5d806c1a6, 0x08f24a1e2505add1},
	"rq2/157371": {0x15e7d2e026166d6a, 0x71b497a980295ee5},
	"rq2/157372": {0xd0f87182ca12c708, 0x21439d10232f5979},
	"rq2/157486": {0x791953733b72e9fb, 0x466d3e73d55590bd},
	"rq2/157524": {0xdf01134f9b69b439, 0x479909693dbd9f6b},
	"rq2/163084": {0xe4ba75bdb5535750, 0x9e841286952711c6},
	"rq2/163093": {0x8a2048f004b0e588, 0x0cb04e5d31ca9d7e},
	"rq2/163108": {0x46d971aa9381a85e, 0x202046420b6bfa52},
	"rq2/163109": {0x7993228c56eeae57, 0xf44d01f03572146c},
	"rq2/163110": {0x47b18023823a175f, 0x92a5e4a2eacc559a},
	"rq2/163112": {0x79e94546b4d8b917, 0x098ec758bd1a90b5},
	"rq2/163115": {0x47f200e29230304d, 0x240b95fcd2029727},
	"rq2/166878": {0x1d0de4ccd052db4d, 0x699027fd307b8c76},
	"rq2/166885": {0x564ce261f69ce9ca, 0x1372c9c4a1c6b488},
	"rq2/166887": {0x3798abcb240511fc, 0x202046420b6bfa52},
	"rq2/166890": {0xafecc07a68943158, 0x2a23c097b149e8f6},
	"rq2/166973": {0x12bafb9e6b7b0473, 0x4572d94759507096},
	"rq2/167003": {0x34427a7e875daec8, 0x1c41a0734af1859f},
	"rq2/167014": {0x060e03b03a767535, 0x0506d0888781d0fc},
	"rq2/167055": {0x53577df07bc16277, 0xd55dadba80c6f4c5},
	"rq2/167059": {0x46fe873570476a00, 0x415d38ef5f841b7a},
	"rq2/167079": {0xe655be165403fc99, 0x3dc4ce0329ac0191},
	"rq2/167090": {0x5163ac4ee10ec086, 0x694101aeafcf597a},
	"rq2/167094": {0x6232881641dfc946, 0xf3fe85ec62c45e69},
	"rq2/167096": {0xa5fa2e20b3e7de4b, 0xe433542d6cd76648},
	"rq2/167173": {0x3a3f5ea25262b2b9, 0xbe6c249641cbdd8f},
	"rq2/167178": {0xf505c80be211fafd, 0xf3706d9cabef715d},
	"rq2/167183": {0x4e0b27a7bdc49f22, 0xfad19e66590e6a60},
	"rq2/167190": {0xe8db790c3b34be1d, 0x1372c9c4a1c6b488},
	"rq2/167199": {0x19e747b1d52a4515, 0x49df0e56aa08d332},
	"rq2/170020": {0x845fb5ca6947aa3f, 0x89f890a6bd35d027},
	"rq2/170071": {0x90e79d8d11d43fc9, 0xaf6e01aac7d9b397},
}

// goldenHashExtras covers operand and instruction shapes the benchmark
// pairs lack: explicit vector constants with poison and undef elements,
// GEP element types, null, float constants, phis and branch labels, flags
// and intrinsic calls.
var goldenHashExtras = []struct {
	hash uint64
	src  string
}{
	{0xc8b232d142966c8a, `define <4 x i32> @cv(<4 x i32> %v, ptr %p) {
  %a = add nsw <4 x i32> %v, <i32 1, i32 -2, i32 poison, i32 undef>
  %g = getelementptr inbounds i16, ptr %p, i64 3
  %l = load <4 x i32>, ptr %g, align 4
  %s = select <4 x i1> <i1 true, i1 false, i1 true, i1 false>, <4 x i32> %a, <4 x i32> %l
  store <4 x i32> %s, ptr null, align 16
  ret <4 x i32> %s
}`},
	{0x57dd3f8fa6b47656, `define float @fl(float %x, double %y) {
entry:
  %c = fcmp olt float %x, 1.500000e+00
  br i1 %c, label %a, label %b
a:
  %t = fptrunc double %y to float
  br label %join
b:
  %u = fadd float %x, -0.000000e+00
  br label %join
join:
  %r = phi float [ %t, %a ], [ %u, %b ], [ undef, %entry ]
  ret float %r
}`},
	{0x235412f1774e60ba, `define i64 @intr(i64 %x, i1 %b) {
  %a = call i64 @llvm.fshl.i64(i64 %x, i64 -9223372036854775808, i64 65)
  %z = call i64 @llvm.ctlz.i64(i64 %a, i1 true)
  %e = zext i1 %b to i64
  %o = or disjoint i64 %z, %e
  %s = call <2 x i64> @llvm.umax.v2i64(<2 x i64> splat (i64 7), <2 x i64> zeroinitializer)
  %q = extractelement <2 x i64> %s, i64 1
  %r = icmp sge i64 %o, %q
  %w = zext i1 %r to i64
  ret i64 %w
}`},
}

func TestHashGolden(t *testing.T) {
	check := func(key, src string, want uint64) {
		t.Helper()
		if got := ir.Hash(parser.MustParseFunc(src)); got != want {
			t.Errorf("%s: ir.Hash = 0x%016x, want 0x%016x", key, got, want)
		}
	}
	n := 0
	for _, c := range RQ1Cases() {
		want, ok := goldenHashes["rq1/"+c.IssueID]
		if !ok {
			t.Fatalf("rq1/%s has no golden hash", c.IssueID)
		}
		check("rq1/"+c.IssueID+" src", c.Pair.Src, want[0])
		check("rq1/"+c.IssueID+" tgt", c.Pair.Tgt, want[1])
		n++
	}
	for _, f := range RQ2Findings() {
		want, ok := goldenHashes["rq2/"+f.IssueID]
		if !ok {
			t.Fatalf("rq2/%s has no golden hash", f.IssueID)
		}
		check("rq2/"+f.IssueID+" src", f.Pair.Src, want[0])
		check("rq2/"+f.IssueID+" tgt", f.Pair.Tgt, want[1])
		n++
	}
	if n != len(goldenHashes) {
		t.Fatalf("checked %d pairs, golden table has %d", n, len(goldenHashes))
	}
	for i, e := range goldenHashExtras {
		check("extra "+string(rune('a'+i)), e.src, e.hash)
	}
}
