# Runs casc commands in a fresh temporary directory, as a user would in
# a shell: copies the input FILEs in, then runs each line of STEPS as a
# casc command line, printing it and its output as golden.sh does.
# Usage: sh steps.sh CASC STEPS [FILE...]
set -eu
abs() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
golden=$(abs "$0")
golden=$(dirname "$golden")/golden.sh
casc=$(abs "$1")
steps=$(abs "$2")
shift 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$@" "$tmp"
cd "$tmp"
while read -r line; do
  echo "\$ casc $line"
  sh "$golden" "$casc" $line
done <"$steps"
