module adaptrm/rmbench

go 1.24

require adaptrm v0.0.0

replace adaptrm => ../
