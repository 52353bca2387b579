package crpc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"testing"

	"zkvc/internal/ff"
	"zkvc/internal/r1cs"
)

// synthesisKnownAnswers pins every matmul circuit this package builds:
// the structure digest of the system and, for rows with a witness, a
// SHA-256 over the assignment, the public witness and Z. The values were
// computed before the circuit builders were merged into one. A Groth16
// CRS, a cached verifier circuit and every proof byte depend on these,
// so a mismatch is a circuit change, never a table to regenerate.
var synthesisKnownAnswers = map[string][2]string{
	"Synthesize 1x1x1 vanilla":                                {"172b8e4a31e98dbb56d13a9b9d3826e1a3d587086a524a0da182629d8a349ba6", "f30027de004a4610ddc8d037abede1906897b84bf784b74ec9ac79f81140c26c"},
	"Synthesize 1x1x1 PSQ":                                    {"bd7a26e6bc1aae0fe4a042d20120dc3974bbd2d3753d01f267daed1a835b7761", "b436808904ab9de8b20fc25a5cdbd4de986704639e2471e52b570b2d6afa6e89"},
	"Synthesize 1x1x1 CRPC":                                   {"172b8e4a31e98dbb56d13a9b9d3826e1a3d587086a524a0da182629d8a349ba6", "0c62883fdd525eb6f91fc5129533c77e17d9523f45777f43a8e5f0850e66aa90"},
	"Synthesize 1x1x1 CRPC+PSQ":                               {"bd7a26e6bc1aae0fe4a042d20120dc3974bbd2d3753d01f267daed1a835b7761", "a653e90fd673f253368185cd66672d412e0a5e8ba4b841504d239c6dacc0502d"},
	"Synthesize 2x3x4 vanilla":                                {"1de510cbef69fa08ae69cadf37743b80cdaa11c0c0e79adb4eccc8cd3bbd0792", "a3b63249d1357e4ea05ce9f7c7ca7bd746ff648deac5fa558c94aae408a3a908"},
	"Synthesize 2x3x4 PSQ":                                    {"8f239ae6ddf4d5e114f93a5ed2f2034f1594ac773782b8f11c98a7bbff8df2ff", "ee7ef1795502242ea2fc8bc3d587cb41eab9aae950920d2bd626e64105718970"},
	"Synthesize 2x3x4 CRPC":                                   {"320f820ee4ae5e02aa5a23a084500af555676334ed5cbf0a96a44678a0206bc6", "fca37827832cd46e0a30819afdfa0e8599eaa208873cda14fbd7486aa46c9bd1"},
	"Synthesize 2x3x4 CRPC+PSQ":                               {"7f449042dd4bc88df600cd0a2ba8b18ff1f5e2199c7d19b937e18e6c2458f0df", "05a8e9616c62ad6e3e668fd9cb10f98d8daa4f712ae1fd18f9a1569e713d117c"},
	"Synthesize 5x1x3 vanilla":                                {"8ba823e5d5e9f85781533b9a43a76fc90fc46890732ae2c3865f32275db5ddef", "0dc95e760d2713cc10bffc985a299cb9afe15f63c38fa457866a2f4c9b5f70e2"},
	"Synthesize 5x1x3 PSQ":                                    {"846cb043e11a77ecb382ae3594886beafcef5c543e8a7545df33b3dc49093dcb", "6db176f57518fc0e482dba0d6903ea5abe77f65815028186a23bed798ff5a44d"},
	"Synthesize 5x1x3 CRPC":                                   {"817d02a6313d64513010775d00969fffd912973c1896633bb3222f41f61fe44f", "8561649aceea99f17cd675ddcef9f63c6881e3d487cdd2a77bb1c23e8d6cedf5"},
	"Synthesize 5x1x3 CRPC+PSQ":                               {"3cec022635f897bd00ed20f3a23769b745efd0a2658d1691e1a89ac8d4dd8748", "1bb4b3de2af4d9e8cb108b9acb836562267bd10db7d9aa1d05d63aea4dd8468b"},
	"Synthesize 4x7x2 vanilla":                                {"5c02c47bf37e57ea958825d024e9d3ea0dd093402b8f4aed6a899e3b293e0a96", "5fa6a1b4c6f49b5ea6b951848a1b7291cd321fccd366729888afc8ad22ad198f"},
	"Synthesize 4x7x2 PSQ":                                    {"90c18c9c3ecd6a0e82a4419662f2bd503e725e9d2838d94414d5940b9a632daa", "b00befe2801082b032962292a1ec08248b236d4c78d7d66a00eaecba85dc46df"},
	"Synthesize 4x7x2 CRPC":                                   {"d6ffd6263a5c39020ddd63c79c0fdf86c95e6b0b210b70e41cb2ba6181c7ec21", "372ada78f93a0d9bb4a539daf020206a496d70712e326160bab9bc15cd06853a"},
	"Synthesize 4x7x2 CRPC+PSQ":                               {"73c0c8e77f4137e3c1681a451bc23ad88c5f7581cbd442824d8b5d250aa215de", "8d4a97e3c70b7a266b7db183c62ef1695faab79756fdc9b63a47d8cc0e0583bb"},
	"Synthesize 2x3x0 vanilla":                                {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", "23059be44d1d9f9da7682fcb8b6d1a9c6774fe0f5e50e8949e7d8d2f6464d76a"},
	"Synthesize 2x3x0 PSQ":                                    {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", "23059be44d1d9f9da7682fcb8b6d1a9c6774fe0f5e50e8949e7d8d2f6464d76a"},
	"Synthesize 2x3x0 CRPC":                                   {"9a2d756fc71aff2db4da39425a1a528f2060d24a55c5098752c581e889dcf82f", "6050ff0f7817f9e3d86d7d2c5ad17b879187871e559e46cb35c31a90c9d3e760"},
	"Synthesize 2x3x0 CRPC+PSQ":                               {"acc6fd612e36fcb90c23e12fd362106a54772500960e13b7751876c3d727e9de", "23c858408703792ed7e0ea4355b263d59eacf14b71deadce03aa13f243aa3ca6"},
	"Synthesize 0x3x2 vanilla":                                {"c473f45560f2047e49bea2612420faa05fe5116090d80d17189cece6a5419a16", "1ba017b0bf3ed936e5c077894d4a85ea204b06a505b9823b7a3789d05d352f03"},
	"Synthesize 0x3x2 PSQ":                                    {"c473f45560f2047e49bea2612420faa05fe5116090d80d17189cece6a5419a16", "1ba017b0bf3ed936e5c077894d4a85ea204b06a505b9823b7a3789d05d352f03"},
	"Synthesize 0x3x2 CRPC":                                   {"2baa89e4cfb3111db82d91900bf63cbc5c13350389e0842bbab9e6b83f5b83f2", "8ea8a1be555bde60da9206f77308447fde64f29f0d997ff1c11da58e7a93437a"},
	"Synthesize 0x3x2 CRPC+PSQ":                               {"08c5ee623046f9a7865a65e09f6459cfb1d861f8c6d9b280c10c4996955f8feb", "7e358c0b3b3d8c05b07cc7c12ab6f98d4f4571daf718e350663a2ec77bbd9ee5"},
	"Synthesize 2x0x3 vanilla":                                {"6e4dc2db4b20258036a950c16d9c11a1881ed0b07e5ff066ea9850fa07ad2858", "9445353648bfe26f9af3696686a01d2b38fea986b9c5d2b7deb9e56ebebfcc98"},
	"Synthesize 2x0x3 PSQ":                                    {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", "9445353648bfe26f9af3696686a01d2b38fea986b9c5d2b7deb9e56ebebfcc98"},
	"Synthesize 2x0x3 CRPC":                                   {"4d80c3db0e2f10802268c346da291dfe9a23bde648c1b0ad7787299061d0d0fc", "3cf51537d2ab3926268c85ea77c6a1c1e64c2b5c1a6b9ee6d096c415a5f48e2c"},
	"Synthesize 2x0x3 CRPC+PSQ":                               {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", "3cf51537d2ab3926268c85ea77c6a1c1e64c2b5c1a6b9ee6d096c415a5f48e2c"},
	"Synthesize 49x64x128 CRPC":                               {"e3bddbc3194ec9edaf11d0a36f01a2a42eb0b42be6385face54b2bee2fb0e72c", "f1142cdf98a0cb6d8896e23873cef64ada0993dc4612c22388a75db2a9f81940"},
	"Synthesize 49x64x128 CRPC+PSQ":                           {"36b32ddb5d2ed1bda4ab26cef11c8b4334ae2ed0cfc09e28a451d408bca9ade1", "50a4834f507ac929933d61941d34eb863720fe7c8d448b783d029825fb5d606b"},
	"SynthesizeAt 4x7x2 vanilla":                              {"5c02c47bf37e57ea958825d024e9d3ea0dd093402b8f4aed6a899e3b293e0a96", "5fa6a1b4c6f49b5ea6b951848a1b7291cd321fccd366729888afc8ad22ad198f"},
	"SynthesizeAt 4x7x2 PSQ":                                  {"90c18c9c3ecd6a0e82a4419662f2bd503e725e9d2838d94414d5940b9a632daa", "b00befe2801082b032962292a1ec08248b236d4c78d7d66a00eaecba85dc46df"},
	"SynthesizeAt 4x7x2 CRPC":                                 {"640a1c6e84e91b89e650d73a66808f3fb92db629e8e6fb9c3c1a4312f853e5f8", "758ebf2a55503a4168c668069204dfaec7a5aec348b5b0270ad92fca40c00de9"},
	"SynthesizeAt 4x7x2 CRPC+PSQ":                             {"6a9654e543400688ec55aba4668e7c2175a045d2f9ec85cdc9315b34f8be5c09", "392fbd99c210dcae40d518e7a87bea1425bd919495a95ce56af433d621d37a21"},
	"SynthesizeShape 1x1x1 vanilla":                           {"172b8e4a31e98dbb56d13a9b9d3826e1a3d587086a524a0da182629d8a349ba6", ""},
	"SynthesizeShape 1x1x1 PSQ":                               {"bd7a26e6bc1aae0fe4a042d20120dc3974bbd2d3753d01f267daed1a835b7761", ""},
	"SynthesizeShape 1x1x1 CRPC":                              {"172b8e4a31e98dbb56d13a9b9d3826e1a3d587086a524a0da182629d8a349ba6", ""},
	"SynthesizeShape 1x1x1 CRPC+PSQ":                          {"bd7a26e6bc1aae0fe4a042d20120dc3974bbd2d3753d01f267daed1a835b7761", ""},
	"SynthesizeShape 2x3x4 vanilla":                           {"1de510cbef69fa08ae69cadf37743b80cdaa11c0c0e79adb4eccc8cd3bbd0792", ""},
	"SynthesizeShape 2x3x4 PSQ":                               {"8f239ae6ddf4d5e114f93a5ed2f2034f1594ac773782b8f11c98a7bbff8df2ff", ""},
	"SynthesizeShape 2x3x4 CRPC":                              {"95437affc178d2e457ff05873ab8e8356ca388dd938dc2f4f52a4f50da553fdb", ""},
	"SynthesizeShape 2x3x4 CRPC+PSQ":                          {"cefb59a2a77ffb8ac5145a48f47ef4fe5ee39c26c5fe246eb23784c48e6cc264", ""},
	"SynthesizeShape 5x1x3 vanilla":                           {"8ba823e5d5e9f85781533b9a43a76fc90fc46890732ae2c3865f32275db5ddef", ""},
	"SynthesizeShape 5x1x3 PSQ":                               {"846cb043e11a77ecb382ae3594886beafcef5c543e8a7545df33b3dc49093dcb", ""},
	"SynthesizeShape 5x1x3 CRPC":                              {"549820ff1adc5fe8dc67f6ab8f0969be775af24c1979a90575ea0914ca70c26a", ""},
	"SynthesizeShape 5x1x3 CRPC+PSQ":                          {"81b7fd945f569c2f348fa5e0df3e5194fd20fbf2dbd10ffde97b67f1d3e53e1e", ""},
	"SynthesizeShape 4x7x2 vanilla":                           {"5c02c47bf37e57ea958825d024e9d3ea0dd093402b8f4aed6a899e3b293e0a96", ""},
	"SynthesizeShape 4x7x2 PSQ":                               {"90c18c9c3ecd6a0e82a4419662f2bd503e725e9d2838d94414d5940b9a632daa", ""},
	"SynthesizeShape 4x7x2 CRPC":                              {"640a1c6e84e91b89e650d73a66808f3fb92db629e8e6fb9c3c1a4312f853e5f8", ""},
	"SynthesizeShape 4x7x2 CRPC+PSQ":                          {"6a9654e543400688ec55aba4668e7c2175a045d2f9ec85cdc9315b34f8be5c09", ""},
	"SynthesizeShape 2x3x0 vanilla":                           {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", ""},
	"SynthesizeShape 2x3x0 PSQ":                               {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", ""},
	"SynthesizeShape 2x3x0 CRPC":                              {"9a2d756fc71aff2db4da39425a1a528f2060d24a55c5098752c581e889dcf82f", ""},
	"SynthesizeShape 2x3x0 CRPC+PSQ":                          {"acc6fd612e36fcb90c23e12fd362106a54772500960e13b7751876c3d727e9de", ""},
	"SynthesizeShape 0x3x2 vanilla":                           {"c473f45560f2047e49bea2612420faa05fe5116090d80d17189cece6a5419a16", ""},
	"SynthesizeShape 0x3x2 PSQ":                               {"c473f45560f2047e49bea2612420faa05fe5116090d80d17189cece6a5419a16", ""},
	"SynthesizeShape 0x3x2 CRPC":                              {"d30be54f167531690d2bfa218256775528de761b262b11e15445ec444b28ec4d", ""},
	"SynthesizeShape 0x3x2 CRPC+PSQ":                          {"5b3b98b43adfaf8c31a989196094e8610efba8da4d7d9db4abc5bc2ea5163963", ""},
	"SynthesizeShape 2x0x3 vanilla":                           {"6e4dc2db4b20258036a950c16d9c11a1881ed0b07e5ff066ea9850fa07ad2858", ""},
	"SynthesizeShape 2x0x3 PSQ":                               {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", ""},
	"SynthesizeShape 2x0x3 CRPC":                              {"99c04cbcf367aa0c2f3d45c0ee665a2603117aed8fdfd16512bc583290fd118c", ""},
	"SynthesizeShape 2x0x3 CRPC+PSQ":                          {"f81267c2e042d89c06c3f1cbdf85e76ec88942f2f506666838197bc7fd1adffa", ""},
	"SynthesizeBatch 1 CRPC":                                  {"fafc2d98efc2d6a804c6298ab3137a06201b3e0654a52cf11f0a29e4624ce3a5", "bb05eeadeea6d10e56df5d2f39aa64d854b8c454f71eb499785692a281fe8aa3"},
	"SynthesizeBatch 2 CRPC":                                  {"2a6ddf7bca4a68dc5985edf36d7c1454c46d6774f7b6fe79065359df2e2c4328", "94e25cff1626c6c0207c6221ad9857b5a23ad500acf68393f2a4f814006d9df3"},
	"SynthesizeBatch 3 CRPC":                                  {"9c924d7f344a3c8b1e5f5e1ff9f93ad58582fe392eaf17a5667692fd6eecf495", "f03388cd459f93ef78fb18c7349b45e3a6193add5b06368a49e5aa06ed601de6"},
	"SynthesizeBatch zero-size CRPC":                          {"d77091f5187243845f3473ad1d637cd25ffa68804348c327b38980d9284ac847", "b4d1e9fab605bb67b4e8d8fc928fcaaf34e96bef14e99467f5947252a4d147fb"},
	"SynthesizeBatchShape [[3 4 5] [2 6 2] [4 4 4]] CRPC":     {"3ba358d2851351e512781cb7a3e587f493c9add63fbb34b81b77bfd8dc26ef02", ""},
	"SynthesizeBatchShape [[2 3 0] [0 3 2] [2 0 3]] CRPC":     {"d7d1604fc2ffb3a4bd78af775638e275af6678db6bfad1d30f40d33dff8fd26f", ""},
	"SynthesizeBatch 1 CRPC+PSQ":                              {"a21e253357bccccbc2431e0f4c523112dcb43feede21070e3d27ef6b45dfa25f", "4970c78ddd12afa878b84558f3fb75b3ce2d26c31c2b3111d750123434961d20"},
	"SynthesizeBatch 2 CRPC+PSQ":                              {"189f7ad499fba32989fbe91bc5fe5ec444dcc6afe11af9043802ee8e7f072dc5", "242a2536a5265eb782c3a2449cadda783ad8c42734188fdf16b60de28331c393"},
	"SynthesizeBatch 3 CRPC+PSQ":                              {"978ebf11311b8f005b2b882f2887c3fec1da3ea9849a3f90721b7f08c204e85b", "8203f9e1b8087783950655ec79c79c4fbdff1efc7e85c248afc815f655792462"},
	"SynthesizeBatch zero-size CRPC+PSQ":                      {"eb87294187eeb05d24b277100c2085d070dfbb1ffd04ca3dcb25eed6636082f3", "69178432d332d0f081475d9fbc8c488faca09975bfe3d15583ff033902c9d1a1"},
	"SynthesizeBatchShape [[3 4 5] [2 6 2] [4 4 4]] CRPC+PSQ": {"fa9fb3f71de52bc54c5145fe64bc38b7f7cbd62a2bc654b8314f61226a716cb9", ""},
	"SynthesizeBatchShape [[2 3 0] [0 3 2] [2 0 3]] CRPC+PSQ": {"072389f49c7971cb0bf9924f75cdd1e8a1fc9f9b0726cfddb193c89f401f5d92", ""},
}

// knownAnswerCase is one pinned synthesis; syn is nil for shape-only rows.
type knownAnswerCase struct {
	name string
	sys  *r1cs.System
	syn  *Synthesis
}

func knownAnswerShapes() [][3]int {
	return [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 3}, {4, 7, 2}}
}

// knownAnswerCases synthesizes every pinned row from fixed seeds.
func knownAnswerCases(t *testing.T) []knownAnswerCase {
	t.Helper()
	var out []knownAnswerCase
	add := func(name string, syn *Synthesis, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, knownAnswerCase{name: name, sys: syn.Sys, syn: syn})
	}
	stmtFor := func(a, n, b int) *Statement {
		rng := mrand.New(mrand.NewSource(int64(10000*a + 100*n + b)))
		return randomStatement(rng, a, n, b)
	}
	var fixedZ, fixedGamma ff.Fr
	fixedZ.SetUint64(0x5eed)
	fixedGamma.SetUint64(0x9a33a)

	zeroSize := [][3]int{{2, 3, 0}, {0, 3, 2}, {2, 0, 3}}
	for _, sh := range append(knownAnswerShapes(), zeroSize...) {
		for _, opts := range allOptions {
			syn, err := Synthesize(stmtFor(sh[0], sh[1], sh[2]), opts)
			add(fmt.Sprintf("Synthesize %dx%dx%d %v", sh[0], sh[1], sh[2], opts), syn, err)
		}
	}
	for _, opts := range allOptions[2:] {
		syn, err := Synthesize(stmtFor(49, 64, 128), opts)
		add(fmt.Sprintf("Synthesize 49x64x128 %v", opts), syn, err)
	}
	for _, opts := range allOptions {
		syn, err := SynthesizeAt(stmtFor(4, 7, 2), fixedZ, opts)
		add(fmt.Sprintf("SynthesizeAt 4x7x2 %v", opts), syn, err)
	}
	for _, sh := range append(knownAnswerShapes(), zeroSize...) {
		for _, opts := range allOptions {
			out = append(out, knownAnswerCase{
				name: fmt.Sprintf("SynthesizeShape %dx%dx%d %v", sh[0], sh[1], sh[2], opts),
				sys:  SynthesizeShape(sh[0], sh[1], sh[2], fixedZ, opts),
			})
		}
	}
	for _, opts := range allOptions[2:] {
		for m := 1; m <= len(batchShapes); m++ {
			bs := randomBatch(mrand.New(mrand.NewSource(int64(340+m))), batchShapes[:m])
			syn, err := SynthesizeBatch(bs, opts)
			add(fmt.Sprintf("SynthesizeBatch %d %v", m, opts), syn, err)
		}
		bs := randomBatch(mrand.New(mrand.NewSource(349)), zeroSize)
		syn, err := SynthesizeBatch(bs, opts)
		add(fmt.Sprintf("SynthesizeBatch zero-size %v", opts), syn, err)
		for _, shapes := range [][][3]int{batchShapes, zeroSize} {
			out = append(out, knownAnswerCase{
				name: fmt.Sprintf("SynthesizeBatchShape %v %v", shapes, opts),
				sys:  SynthesizeBatchShape(shapes, fixedZ, fixedGamma, opts),
			})
		}
	}
	return out
}

// valuesDigest hashes the assignment, the public witness and Z.
func valuesDigest(syn *Synthesis) string {
	h := sha256.New()
	var n [8]byte
	for _, vec := range [][]ff.Fr{syn.Assignment, syn.Public, {syn.Z}} {
		binary.BigEndian.PutUint64(n[:], uint64(len(vec)))
		h.Write(n[:])
		for i := range vec {
			b := vec[i].Bytes()
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSynthesisKnownAnswers(t *testing.T) {
	cases := knownAnswerCases(t)
	if len(cases) != len(synthesisKnownAnswers) {
		t.Errorf("%d cases, %d pinned answers", len(cases), len(synthesisKnownAnswers))
	}
	for _, c := range cases {
		d := c.sys.StructureDigest()
		got := [2]string{hex.EncodeToString(d[:]), ""}
		if c.syn != nil {
			got[1] = valuesDigest(c.syn)
		}
		want, ok := synthesisKnownAnswers[c.name]
		if !ok {
			t.Errorf("%q: no pinned answer (got %q, %q)", c.name, got[0], got[1])
			continue
		}
		if got != want {
			t.Errorf("%q:\n got  %q, %q\n want %q, %q", c.name, got[0], got[1], want[0], want[1])
		}
	}
}
