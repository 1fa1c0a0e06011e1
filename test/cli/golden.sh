# Runs a command and prints its stdout and stderr, with the ` in N.NNms`
# wall time of an `engine:` line stripped, then its exit code.
{ "$@" 2>&1; echo "exit: $?"; } | sed -E 's/ in [0-9]+[.][0-9]+ms//'
