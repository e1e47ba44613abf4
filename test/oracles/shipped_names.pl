# Prints every code line (comments stripped, nested ones included) of the
# OCaml files given as arguments that names Dijkstra, Cdg_ref, Acyclic,
# Acyclic_ref, Sequential_ref, Dfs_ref, Jellyfish_ref or Random_ref, and
# exits 1 if there is one.
# Run by `make no-oracles` over lib/ and bin/.
s{(\(\*(?:[^(*]|\((?!\*)|\*(?!\))|(?1))*\*\))}{$1 =~ tr/\n//cdr}ge;
my $n = 0;
for (split /\n/, $_, -1) {
  $n++;
  if (/\b(?:Dijkstra|Cdg_ref|Acyclic|Acyclic_ref|Sequential_ref|Dfs_ref|Jellyfish_ref|Random_ref)\b/) { print "$ARGV:$n: $_\n"; $bad = 1 }
}
END { if ($bad) { print "no-oracles: oracle names in shipped code (above)\n"; exit 1 } }
