# Runs a command and prints its stdout, with the ` in N.NNms` wall time
# of an `engine:` line stripped, then its exit code.
{ "$@"; echo "exit: $?"; } | sed -E 's/ in [0-9]+[.][0-9]+ms//'
