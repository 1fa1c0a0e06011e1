int g = 3;
int sum(int n) {
  int s;
  int t;
  s = 0;
  while (0 < n) {
    t = g;
    s = s + n;
    n = n - 1;
  }
  return s;
}
void main() {
  int r;
  r = sum(5);
  print(r);
  print(r + g);
}
