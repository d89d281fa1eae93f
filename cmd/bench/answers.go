package main

// fullCorpusAnswers pins svc-corpus: verdict and counts of each cell at
// its depth cap. A depth-capped clean run is "no-violation" (nothing
// failed in what was explored); "violation" cells are the paper's §2
// mechanism removals that the cap reaches.
var fullCorpusAnswers = map[string]cellAnswer{
	"alloc/alloc-white":                {"violation", 26, 39, 1},
	"alloc/clean":                      {"no-violation", 14498, 33955, 20},
	"alloc/no-deletion-barrier":        {"no-violation", 17191, 42137, 20},
	"alloc/no-hs-fence":                {"no-violation", 55831, 143840, 20},
	"alloc/no-insertion-barrier":       {"no-violation", 19279, 48353, 20},
	"alloc/unlocked-mark":              {"no-violation", 14498, 33955, 20},
	"chain/alloc-white":                {"no-violation", 16699, 38816, 24},
	"chain/clean":                      {"no-violation", 16699, 38816, 24},
	"chain/no-deletion-barrier":        {"no-violation", 19877, 49625, 24},
	"chain/no-hs-fence":                {"violation", 45187, 112513, 23},
	"chain/no-insertion-barrier":       {"no-violation", 19023, 46830, 24},
	"chain/unlocked-mark":              {"no-violation", 16699, 38816, 24},
	"tiny/alloc-white":                 {"no-violation", 28366, 76349, 34},
	"tiny/clean":                       {"no-violation", 28366, 76349, 34},
	"tiny/no-deletion-barrier":         {"no-violation", 25924, 71718, 34},
	"tiny/no-hs-fence":                 {"violation", 35448, 97107, 22},
	"tiny/no-insertion-barrier":        {"violation", 26909, 73916, 33},
	"tiny/unlocked-mark":               {"violation", 18464, 48446, 28},
	"two-mutator/alloc-white":          {"no-violation", 27050, 93936, 38},
	"two-mutator/clean":                {"no-violation", 27050, 93936, 38},
	"two-mutator/no-deletion-barrier":  {"no-violation", 21374, 77646, 38},
	"two-mutator/no-hs-fence":          {"violation", 70297, 283134, 28},
	"two-mutator/no-insertion-barrier": {"no-violation", 22641, 81629, 38},
	"two-mutator/unlocked-mark":        {"no-violation", 27050, 93936, 38},
}
