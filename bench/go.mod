module github.com/patternsoflife/pol/bench

go 1.23

require github.com/patternsoflife/pol v0.0.0

replace github.com/patternsoflife/pol => ../
