#!/usr/bin/env perl
# Parent-vs-change A/B of the end-to-end benchmark (BENCHMARK.json):
#
#   perl bench/ab.pl --base REV [--workloads "w1 w2"] [--pairs N]
#                    [--seed N] [--trace 0|1]
#
# (`make bench-ab BASE=REV [WORKLOADS=...] [PAIRS=N] [SEED=N] [TRACE=1]`).
# Run from the repository root. REV is extracted with `git archive` into
# a temporary directory, which is removed at exit; the change is the
# working tree as it stands. Each pair runs the workload once in each
# tree, through that tree's own e2ebench/run.sh, at BENCHMARK.json's
# run_seconds and the given seed (default 1); which side goes first
# alternates from pair to pair, so a slow phase of a shared host falls
# on both. With --trace 1 each pair also makes one traced run per side,
# in the same alternating order, for the per-layer metrics (a traced run
# reports those instead of the end-to-end ones). Writes
# bench_results/ab_<workload>.json (ab_<workload>_seed<N>.json for a
# seed other than 1): per end-to-end metric, each side's runs, median
# and quartiles, the pairs the change won, and a verdict against
# BENCHMARK.json's bound:
#
#   "regressed"    the change's median is worse than the base's by more
#                  than the bound;
#   "gain"         the change is better in at least 9 of every 10 pairs,
#                  and its median beats the base's by more than the
#                  base's interquartile range;
#   "within bound" otherwise.
#
# and with --trace 1, under "per_layer", each per-layer metric's runs,
# median and quartiles for each side (no verdict: they have no bound).
#
# Exits 1 if a run fails or reports incorrect outputs, 2 on a usage error.
use strict;
use warnings;
use Cwd qw(getcwd);
use File::Temp qw(tempdir);
use Getopt::Long;
use JSON::PP;

my ($base, $workloads, $pairs, $seed, $trace) = ('', '', 10, 1, 0);
GetOptions(
  'base=s' => \$base,
  'workloads=s' => \$workloads,
  'pairs=s' => \$pairs,
  'seed=s' => \$seed,
  'trace=s' => \$trace,
) or exit 2;
$pairs = 10 if $pairs eq '';
$seed = 1 if $seed eq '';
$trace = 0 if $trace eq '';
unless ($base ne '' && $pairs =~ /^[1-9][0-9]*$/ && $seed =~ /^[0-9]+$/ && $trace =~ /^[01]$/) {
  print STDERR "usage: make bench-ab BASE=<rev> [WORKLOADS=\"w1 w2\"] [PAIRS=n] [SEED=n] [TRACE=1]\n";
  exit 2;
}

sub slurp {
  my ($path) = @_;
  open my $fh, '<', $path or die "bench-ab: cannot read $path: $!\n";
  local $/;
  return <$fh>;
}

my $bench = decode_json(slurp('BENCHMARK.json'));
my $seconds = $bench->{run_seconds};
my @known = map { $_->{name} } @{ $bench->{workloads} };
my @chosen = $workloads =~ /\S/ ? split(/[\s,]+/, $workloads) : @known;
for my $w (@chosen) {
  unless (grep { $_ eq $w } @known) {
    print STDERR "bench-ab: unknown workload '$w' (BENCHMARK.json has: @known)\n";
    exit 2;
  }
}

my $commit = `git rev-parse --verify --quiet '$base^{commit}'`;
chomp $commit;
if ($? != 0 || $commit eq '') {
  print STDERR "bench-ab: '$base' names no commit\n";
  exit 2;
}
my $head = `git rev-parse HEAD`;
chomp $head;
my $dirty = `git status --porcelain --untracked-files=no` ne '' ? 1 : 0;

my $tmp = tempdir('bench-ab-XXXXXX', TMPDIR => 1, CLEANUP => 1);
system("git archive '$commit' | tar -x -C '$tmp'") == 0 or die "bench-ab: cannot extract $commit\n";
my %tree = (base => $tmp, change => getcwd());

# One run, traced or not: the last stdout line of run.sh is the result
# JSON.
sub run_one {
  my ($side, $w, $traced) = @_;
  my $dir = $tree{$side};
  my $out = `cd '$dir' && sh e2ebench/run.sh --workload '$w' --seed $seed --seconds $seconds --trace $traced`;
  die "bench-ab: $side run of $w exited with status $?\n" if $? != 0;
  my @lines = grep { /\S/ } split /\n/, $out;
  my $r = decode_json($lines[-1]);
  die "bench-ab: $side run of $w reported incorrect outputs\n" unless $r->{correct};
  printf STDERR "bench-ab: %s %s%s: %s\n", $w, $side, $traced ? ' (traced)' : '',
    join(' ', map { "$_=" . sprintf('%.4g', $r->{metrics}{$_}{value}) } sort keys %{ $r->{metrics} });
  return $r;
}

# Quantile by linear interpolation between order statistics.
sub quantile {
  my ($q, @xs) = @_;
  @xs = sort { $a <=> $b } @xs;
  my $pos = $q * $#xs;
  my $lo = int($pos);
  my $hi = $lo < $#xs ? $lo + 1 : $lo;
  return $xs[$lo] + ($pos - $lo) * ($xs[$hi] - $xs[$lo]);
}

sub summary {
  my @xs = @_;
  return { runs => [@xs], median => quantile(0.5, @xs), q1 => quantile(0.25, @xs), q3 => quantile(0.75, @xs) };
}

mkdir 'bench_results';
for my $w (@chosen) {
  my %runs = (base => [], change => []);
  my %traced = (base => [], change => []);
  for my $i (0 .. $pairs - 1) {
    my @sides = $i % 2 == 0 ? qw(base change) : qw(change base);
    push @{ $runs{$_} }, run_one($_, $w, 0) for @sides;
    if ($trace) { push @{ $traced{$_} }, run_one($_, $w, 1) for @sides }
  }
  my %metrics;
  for my $m (@{ $bench->{end_to_end} }) {
    my $name = $m->{name};
    my $lower = $m->{better} eq 'lower';
    my @b = map { $_->{metrics}{$name}{value} } @{ $runs{base} };
    my @c = map { $_->{metrics}{$name}{value} } @{ $runs{change} };
    next if grep { !defined } @b, @c;
    my ($sb, $sc) = (summary(@b), summary(@c));
    my $wins = grep { $lower ? $c[$_] < $b[$_] : $c[$_] > $b[$_] } 0 .. $#b;
    my $gain = $lower ? $sb->{median} - $sc->{median} : $sc->{median} - $sb->{median};
    my $limit = $sb->{median} * (1 + ($lower ? $m->{bound} : -$m->{bound}));
    my $verdict =
        ($lower ? $sc->{median} > $limit : $sc->{median} < $limit) ? 'regressed'
      : (10 * $wins >= 9 * $pairs && $gain > $sb->{q3} - $sb->{q1}) ? 'gain'
      : 'within bound';
    $metrics{$name} = {
      unit => $m->{unit},
      better => $m->{better},
      bound => $m->{bound},
      base => $sb,
      change => $sc,
      change_over_base => $sb->{median} == 0 ? undef : $sc->{median} / $sb->{median},
      wins => $wins,
      verdict => $verdict,
    };
  }
  my %per_layer;
  for my $m (@{ $bench->{per_layer} }) {
    my $name = $m->{name};
    my @b = map { $_->{metrics}{$name}{value} } @{ $traced{base} };
    my @c = map { $_->{metrics}{$name}{value} } @{ $traced{change} };
    next if !@b || grep { !defined } @b, @c;
    $per_layer{$name} = { unit => $m->{unit}, better => $m->{better}, base => summary(@b), change => summary(@c) };
  }
  my $fail = sub { my $n = 0; $n += $_->{failed} for @{ $_[0] }; $n };
  my $result = {
    workload => $w,
    base => $commit,
    change => $head . ($dirty ? ' plus uncommitted changes' : ''),
    pairs => $pairs + 0,
    seconds => $seconds,
    seed => $seed + 0,
    trace => $trace + 0,
    failed => {
      base => $fail->([ @{ $runs{base} }, @{ $traced{base} } ]),
      change => $fail->([ @{ $runs{change} }, @{ $traced{change} } ]),
    },
    metrics => \%metrics,
    ($trace ? (per_layer => \%per_layer) : ()),
  };
  my $path = $seed == 1 ? "bench_results/ab_$w.json" : "bench_results/ab_${w}_seed$seed.json";
  open my $fh, '>', $path or die "bench-ab: cannot write $path: $!\n";
  print $fh JSON::PP->new->canonical->pretty->encode($result);
  close $fh;
  printf "bench-ab: %s -> %s (%s)\n", $w, $path,
    join(', ', map { "$_ $metrics{$_}{verdict}" } sort keys %metrics);
}
