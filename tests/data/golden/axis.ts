# hcip n=2 s=0
2 2
0 1
1 0
