module github.com/lbl-repro/meraligner/bench

go 1.24.0

require github.com/lbl-repro/meraligner v0.0.0

replace github.com/lbl-repro/meraligner => ../
