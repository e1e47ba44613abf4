# The shipped-API audit behind `make api-audit`: lists every `val` of a
# shipped interface (lib/*/*.mli) that no code in lib/ or bin/ outside
# its own module references, and exits 1 unless each such value is on
# the allowlist (test/api_allowlist.txt, one "Library.Module.value
# reason" per line). Allowlist entries that are referenced after all,
# or name no value, fail too, so the list cannot go stale.
#
# A reference is a code token (comments and string literals stripped)
# of the form Module.value, through the module itself, an umbrella that
# includes it (dfsssp.ml includes Router), or a local alias
# (module M = Deadlock.Layers); a bare value counts in a file that opens
# the module (open M, let open M, M.( ... )). That over-approximates
# use, so the audit can miss a dead value but never flags a used one.
#
# The allowlist itself is checked too: an entry whose reason names
# e2ebench/, bench/ or examples/ fails unless code in that directory
# references the value (the same test as above); an entry under the
# "# Test hooks" heading must say which private state it reads (its
# reason names "private"), and there are at most 15 of them; and the
# marker "ROADMAP item 15" (the list's former to-do sections) is
# rejected anywhere in the file.
#
# Usage: perl test/api_audit.pl test/api_allowlist.txt

use strict;
use warnings;

my $allowlist = shift @ARGV or die "usage: api_audit.pl ALLOWLIST\n";

sub slurp {
  my ($path) = @_;
  open my $fh, '<', $path or die "$path: $!\n";
  local $/;
  my $s = <$fh>;
  close $fh;
  return $s;
}

# Comments (nested), string and character literals become blanks, in
# one left-to-right pass (so '"' opens no string); newlines are kept.
sub strip {
  my ($s) = @_;
  $s =~ s{((\(\*(?:[^(*]|\((?!\*)|\*(?!\))|(?2))*\*\))|"(?:[^"\\]|\\.)*"|'(?:[^'\\\n]|\\[^']+)')}{$1 =~ tr/\n/ /cr}ges;
  return $s;
}

sub module_of { my ($path) = @_; $path =~ m{([^/]+)\.mli?$}; return ucfirst $1 }

my @mlis = sort glob 'lib/*/*.mli';
my @code = sort (glob('lib/*/*.ml'), glob('bin/*.ml'));

# Library of each lib/ directory, from its dune file.
my %library;
for my $dir (glob 'lib/*') {
  next unless -f "$dir/dune";
  $library{$dir} = ucfirst $1 if slurp("$dir/dune") =~ /\(name\s+(\w+)\)/;
}

# Umbrellas: a module that includes another re-exports its values.
my %umbrellas;    # Module -> [modules that include it]
for my $f (@code) {
  my $s = strip(slurp($f));
  push @{ $umbrellas{$1} }, module_of($f) while $s =~ /^\s*include\s+(?:\w+\.)*([A-Z]\w*)\s*$/mg;
}

# The values each interface declares, with the module path qualifying
# them (nested `module X : sig` blocks qualify by X; module types are
# skipped: their values belong to whoever implements them).
my @decls;    # [key, own source file, qualifier, value]
for my $mli (@mlis) {
  my $dir = $mli =~ s{/[^/]+$}{}r;
  my $mod = module_of($mli);
  my @stack;
  for my $line (split /\n/, strip(slurp($mli))) {
    my @opened =
        $line =~ /^\s*module\s+type\s+\w+\s*=\s*sig\b/ ? (undef)
      : $line =~ /^\s*module\s+(\w+)\s*:\s*sig\b/ ? ($1)
      : ();
    if ($line =~ /^\s*val\s+([a-z_][\w']*)\s*:/ && !grep { !defined } @stack) {
      my $value = $1;
      my $qual = @stack ? $stack[-1] : $mod;
      my $path = join '.', grep { defined } $library{$dir}, ($mod eq ($library{$dir} // '') ? () : $mod), @stack;
      push @decls, [ "$path.$value", $mli =~ s/i$//r, $qual, $value ];
    }
    my $opens = () = $line =~ /\b(?:sig|struct|object)\b/g;
    my $ends = () = $line =~ /\bend\b/g;
    push @stack, @opened, ('anon') x ($opens - @opened);
    pop @stack for 1 .. $ends;
  }
}

# Per code file: its module, its code, the modules it opens and its
# aliases.
sub code_files {
  my @files;
  for my $f (@_) {
    my $s = strip(slurp($f));
    my %opens;
    $opens{$1} = 1 while $s =~ /\bopen!?\s+(?:\w+\.)*([A-Z]\w*)/g;
    $opens{$1} = 1 while $s =~ /\b([A-Z]\w*)\.\(/g;
    my %alias;    # module -> [aliases]
    push @{ $alias{$2} }, $1 while $s =~ /\bmodule\s+([A-Z]\w*)\s*=\s*(?:\w+\.)*([A-Z]\w*)\b(?!\s*\()/g;
    push @files, { path => $f, code => $s, opens => \%opens, alias => \%alias };
  }
  return \@files;
}

# Whether some file of [files] other than the value's own references it.
sub referenced {
  my ($d, $files) = @_;
  my ($key, $own, $qual, $value) = @$d;
  my @names = ($qual);
  push @names, @{ $umbrellas{$qual} // [] } if $qual eq module_of($own);
  for my $file (@$files) {
    next if $file->{path} eq $own;
    my @q = (@names, map { @{ $file->{alias}{$_} // [] } } @names);
    my $qre = join '|', map { quotemeta } @q;
    return 1
      if $file->{code} =~ /\b(?:$qre)\.\Q$value\E\b/
      || (grep { $file->{opens}{$_} } @q) && $file->{code} =~ /(?<![\w.'])\Q$value\E\b/;
  }
  return 0;
}

my $shipped = code_files(@code);
my %unused = map { $_->[0] => 1 } grep { !referenced($_, $shipped) } @decls;

my %declared = map { $_->[0] => $_ } @decls;
my %outside = map { $_ => code_files(sort glob "$_/*.ml") } qw(e2ebench bench examples);
my (%allowed, $bad);
my ($n, $section, $hooks) = (0, '', 0);
my $prev_blank = 1;
for (split /\n/, slurp($allowlist)) {
  $n++;
  if (/ROADMAP item 15/) { print "$allowlist:$n: the \"ROADMAP item 15\" marker is gone; give the entry its own reason\n"; $bad = 1 }
  my $blank = /^\s*$/;
  $section = $1 if $prev_blank && /^#\s*(.*)$/;
  $prev_blank = $blank;
  next if $blank || /^\s*#/;
  my ($key, $reason) = /^(\S+)\s+(\S.*)$/ or do { print "$allowlist:$n: expected \"Library.Module.value reason\"\n"; $bad = 1; next };
  $allowed{$key} = 1;
  if (!$declared{$key}) { print "$allowlist:$n: $key is declared in no shipped interface\n"; $bad = 1; next }
  elsif (!$unused{$key}) { print "$allowlist:$n: $key is used by lib/ or bin/; drop it from the list\n"; $bad = 1 }
  for my $dir (grep { $reason =~ /(?<![\w\/])\Q$_\E\b/ } sort keys %outside) {
    next if referenced($declared{$key}, $outside{$dir});
    print "$allowlist:$n: $key: the reason names $dir/, but no code there references it\n";
    $bad = 1;
  }
  if ($section =~ /^Test hooks\b/) {
    $hooks++;
    if ($reason !~ /\bprivate\b/) { print "$allowlist:$n: $key: a test hook's reason must name the private state it reads\n"; $bad = 1 }
  }
}
if ($hooks > 15) { print "$allowlist: $hooks test hooks; at most 15 (move helpers that need no private state to test/testutil.ml)\n"; $bad = 1 }
for my $key (sort keys %unused) {
  next if $allowed{$key};
  print "api-audit: $key: no reference in lib/ or bin/ outside its module\n";
  $bad = 1;
}
if ($bad) { print "api-audit: move test-only values into test/, delete dead ones, or list them in $allowlist with a reason\n"; exit 1 }
printf "api-audit: OK (%d values, %d allowlisted)\n", scalar @decls, scalar keys %allowed;
